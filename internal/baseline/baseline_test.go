package baseline

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

var ladder = []float64{2, 4, 7, 12, 20, 33}

func mm1User(delta, meanQ, cap_ float64, scale float64) core.UserInput {
	rates := make([]float64, len(ladder))
	delays := make([]float64, len(ladder))
	for i, r := range ladder {
		rates[i] = r * scale
		if rates[i] >= cap_ {
			delays[i] = 1e6
		} else {
			delays[i] = rates[i] / (cap_ - rates[i])
		}
	}
	return core.UserInput{Rate: rates, Delay: delays, Delta: delta, MeanQ: meanQ, Cap: cap_}
}

func slotProblem(t int, budget float64, users ...core.UserInput) *core.SlotProblem {
	return &core.SlotProblem{T: t, Budget: budget, Users: users}
}

func TestFireflyGrabsHighestSustainableLevel(t *testing.T) {
	params := core.DefaultSimParams()
	f := NewFirefly()
	// One user, generous budget: Firefly saturates the link estimate;
	// ladder rate 33 fits under cap 40, so level 6.
	p := slotProblem(1, 1000, mm1User(1, 0, 40, 1))
	a := f.Allocate(params, p)
	if a.Levels[0] != 6 {
		t.Errorf("level = %d, want 6", a.Levels[0])
	}
	// With a tighter link (cap 18) level 5 (rate 20) no longer fits.
	p = slotProblem(1, 1000, mm1User(1, 0, 18, 1))
	a = f.Allocate(params, p)
	if a.Levels[0] != 4 {
		t.Errorf("tight-link level = %d, want 4", a.Levels[0])
	}
	// An explicit headroom makes it conservative again.
	f2 := NewFirefly()
	f2.Headroom = 0.6 // 0.6*30 = 18: level 4 (rate 12) fits, level 5 (20) not
	a = f2.Allocate(params, slotProblem(1, 1000, mm1User(1, 0, 30, 1)))
	if a.Levels[0] != 4 {
		t.Errorf("headroom level = %d, want 4", a.Levels[0])
	}
}

func TestFireflyRespectsBudgetByLRUDowngrades(t *testing.T) {
	params := core.DefaultSimParams()
	f := NewFirefly()
	users := []core.UserInput{
		mm1User(1, 0, 100, 1),
		mm1User(1, 0, 100, 1),
		mm1User(1, 0, 100, 1),
	}
	// Each would want level 6 (rate 33); budget forces total <= 40.
	p := slotProblem(1, 40, users...)
	a := f.Allocate(params, p)
	if a.Rate > 40+1e-9 {
		t.Fatalf("rate %v exceeds budget", a.Rate)
	}
	// Downgrades should be spread by the LRU rotation, not all on one user.
	minL, maxL := a.Levels[0], a.Levels[0]
	for _, l := range a.Levels {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	if maxL-minL > 1 {
		t.Errorf("LRU should spread downgrades evenly, got levels %v", a.Levels)
	}
}

func TestFireflyBudgetInfeasibleStopsAtBase(t *testing.T) {
	params := core.DefaultSimParams()
	f := NewFirefly()
	p := slotProblem(1, 0.1, mm1User(1, 0, 100, 1), mm1User(1, 0, 100, 1))
	a := f.Allocate(params, p)
	for i, l := range a.Levels {
		if l != 1 {
			t.Errorf("user %d level = %d, want 1", i, l)
		}
	}
}

func TestFireflyIgnoresVariance(t *testing.T) {
	// A user with a low running mean: Algorithm 1 would hold quality near
	// the mean, Firefly jumps to the top regardless.
	params := core.Params{Alpha: 0.02, Beta: 0.5, Levels: 6}
	f := NewFirefly()
	u := mm1User(1, 1, 40, 1) // mean viewed quality 1
	p := slotProblem(100, 1000, u)
	firefly := f.Allocate(params, p)
	dv := core.NewSolverAllocator().Allocate(params, p)
	if firefly.Levels[0] <= dv.Levels[0] {
		t.Errorf("firefly level %d should exceed variance-aware level %d",
			firefly.Levels[0], dv.Levels[0])
	}
}

func TestPAVQPriceConvergesUnderStationaryLoad(t *testing.T) {
	params := core.DefaultSimParams()
	a := NewPAVQ()
	users := []core.UserInput{
		mm1User(1, 4, 60, 1),
		mm1User(1, 4, 60, 1),
		mm1User(1, 4, 60, 1),
	}
	// Budget that binds: each wants a high level; run many slots.
	var lastRate float64
	for slot := 1; slot <= 400; slot++ {
		p := slotProblem(slot, 30, users...)
		got := a.Allocate(params, p)
		lastRate = got.Rate
		if got.Rate > p.Budget+1e-9 {
			t.Fatalf("slot %d: rate %v exceeds budget", slot, got.Rate)
		}
	}
	if a.lambda <= 0 {
		t.Errorf("binding budget should yield positive price, got %v", a.lambda)
	}
	if lastRate <= 0 {
		t.Errorf("PAVQ should allocate nonzero rate")
	}
}

func TestPAVQNearOptimalWhenStationary(t *testing.T) {
	params := core.DefaultSimParams()
	a := NewPAVQ()
	users := []core.UserInput{
		mm1User(0.95, 3.5, 80, 1),
		mm1User(0.9, 3.0, 60, 1.2),
		mm1User(0.85, 4.0, 70, 0.8),
	}
	budget := 40.0
	// Warm the price up, then compare the converged allocation value with
	// the per-slot optimum. PAVQ should be within 80% (Fig. 2 shows it close
	// to optimal QoE under stationary conditions).
	var got core.Allocation
	var p *core.SlotProblem
	for slot := 1; slot <= 300; slot++ {
		p = slotProblem(slot, budget, users...)
		got = a.Allocate(params, p)
	}
	opt := core.Optimal{}.Allocate(params, p)
	if opt.Value > 0 && got.Value < 0.8*opt.Value {
		t.Errorf("converged PAVQ value %v too far below optimal %v", got.Value, opt.Value)
	}
}

func TestPAVQRespectsUserCaps(t *testing.T) {
	params := core.DefaultSimParams()
	a := NewPAVQ()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		users := []core.UserInput{
			mm1User(rng.Float64(), rng.Float64()*6, 10+rng.Float64()*50, 0.5+rng.Float64()),
			mm1User(rng.Float64(), rng.Float64()*6, 10+rng.Float64()*50, 0.5+rng.Float64()),
		}
		p := slotProblem(1+trial, 20+rng.Float64()*40, users...)
		got := a.Allocate(params, p)
		for i, l := range got.Levels {
			if l > 1 && users[i].Rate[l-1] > users[i].Cap+1e-9 {
				t.Fatalf("trial %d: user %d violates cap", trial, i)
			}
		}
		if got.Rate > p.Budget+1e-9 {
			t.Fatalf("trial %d: rate %v exceeds budget %v", trial, got.Rate, p.Budget)
		}
	}
}

func TestPAVQLagsBehindCapacityDrop(t *testing.T) {
	// The price adapts slowly: right after a sharp capacity drop PAVQ's
	// pre-trim demand overshoots and trimming is forced. This is the
	// mechanism behind its degradation in the paper's dynamic experiments.
	params := core.DefaultSimParams()
	a := NewPAVQ()
	users := []core.UserInput{mm1User(1, 4, 100, 1), mm1User(1, 4, 100, 1)}
	for slot := 1; slot <= 200; slot++ {
		a.Allocate(params, slotProblem(slot, 80, users...))
	}
	priceBefore := a.lambda
	// Capacity halves; the lagged price cannot reflect it immediately.
	a.Allocate(params, slotProblem(201, 20, users...))
	if a.lambda <= priceBefore {
		t.Errorf("price should rise after violation: before %v after %v",
			priceBefore, a.lambda)
	}
}

func TestBaselineNames(t *testing.T) {
	if NewFirefly().Name() != "firefly" {
		t.Errorf("firefly name wrong")
	}
	if NewPAVQ().Name() != "pavq" {
		t.Errorf("pavq name wrong")
	}
}

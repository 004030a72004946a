package core

import (
	"math/rand"
	"testing"
)

// randomHorizon builds a tiny horizon instance with L=3 levels.
func randomHorizon(rng *rand.Rand, users, slots int) *HorizonProblem {
	params := Params{Alpha: 0.02, Beta: 0.5, Levels: 3}
	h := &HorizonProblem{Params: params, Users: users}
	base := []float64{5, 12, 26}
	for t := 0; t < slots; t++ {
		slot := HorizonSlot{
			Budget:  float64(users) * (8 + rng.Float64()*10),
			Rates:   make([][]float64, users),
			Delays:  make([][]float64, users),
			Caps:    make([]float64, users),
			Covered: make([]bool, users),
		}
		for n := 0; n < users; n++ {
			scale := 0.7 + rng.Float64()*0.6
			cap_ := 10 + rng.Float64()*30
			rates := make([]float64, 3)
			delays := make([]float64, 3)
			for q := 0; q < 3; q++ {
				rates[q] = base[q] * scale
				if rates[q] >= cap_ {
					delays[q] = 1000
				} else {
					delays[q] = rates[q] / (cap_ - rates[q]) * 16.7
				}
			}
			slot.Rates[n] = rates
			slot.Delays[n] = delays
			slot.Caps[n] = cap_
			slot.Covered[n] = rng.Float64() < 0.92
		}
		h.Slots = append(h.Slots, slot)
	}
	return h
}

// TestSequentialTracksClairvoyant validates eq. (8) empirically: across
// random tiny instances, sequentially solving (5)-(7) with Algorithm 1
// achieves on average nearly the clairvoyant optimum of (1)-(3), and never
// falls pathologically below it.
func TestSequentialTracksClairvoyant(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var ratioSum float64
	trials := 20
	for trial := 0; trial < trials; trial++ {
		h := randomHorizon(rng, 2, 4) // (3^2)^4 = 6561 assignments
		_, opt := h.SolveHorizonExhaustive()
		_, seq := h.SolveHorizonSequential(NewSolverAllocator())
		if opt <= 0 {
			ratioSum++
			continue
		}
		if seq > opt+1e-9 {
			t.Fatalf("trial %d: sequential %v exceeds clairvoyant %v", trial, seq, opt)
		}
		ratioSum += seq / opt
	}
	if avg := ratioSum / float64(trials); avg < 0.85 {
		t.Errorf("sequential/clairvoyant average ratio = %v, want >= 0.85", avg)
	}
}

// TestPerSlotOptimalSequentialAlsoTracks repeats the check with the exact
// per-slot solver: the remaining gap is then purely the cost of the
// decomposition (eq. (8)), not of the 1/2-approximation.
func TestPerSlotOptimalSequentialAlsoTracks(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	var worst = 1.0
	for trial := 0; trial < 10; trial++ {
		h := randomHorizon(rng, 2, 4)
		_, opt := h.SolveHorizonExhaustive()
		_, seq := h.SolveHorizonSequential(Optimal{})
		if opt <= 0 {
			continue
		}
		if r := seq / opt; r < worst {
			worst = r
		}
	}
	if worst < 0.7 {
		t.Errorf("worst decomposition ratio = %v, want >= 0.7", worst)
	}
}

func TestHorizonQoEFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	h := randomHorizon(rng, 2, 2)
	// All-max assignment: likely infeasible under the caps/budget; if the
	// checker says ok it must produce a finite value.
	levels := [][]int{{3, 3}, {3, 3}}
	if _, ok := h.QoE(levels); ok {
		// fine: instance was generous
		return
	}
	// All-base must always be feasible.
	base := [][]int{{1, 1}, {1, 1}}
	if _, ok := h.QoE(base); !ok {
		t.Fatal("all-base assignment must be feasible")
	}
}

func TestHorizonEmpty(t *testing.T) {
	h := &HorizonProblem{Params: DefaultSimParams(), Users: 0}
	if q, ok := h.QoE(nil); !ok || q != 0 {
		t.Errorf("empty horizon QoE = (%v, %v)", q, ok)
	}
}

func TestDPOptimalAllocator(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 30; trial++ {
		p := randomSlotProblem(rng, params, 4)
		dp := DPOptimal{}.Allocate(params, p)
		opt := Optimal{}.Allocate(params, p)
		if dp.Rate > p.Budget+1e-9 {
			t.Fatalf("trial %d: DP allocation violates budget", trial)
		}
		if dp.Value > opt.Value+1e-9 {
			t.Fatalf("trial %d: DP %v above exact %v", trial, dp.Value, opt.Value)
		}
		if opt.Value > 0 && dp.Value < 0.9*opt.Value {
			t.Errorf("trial %d: DP %v too far below exact %v", trial, dp.Value, opt.Value)
		}
	}
	if got := (DPOptimal{}).Name(); got != "dp-optimal" {
		t.Errorf("name = %q", got)
	}
}

// This file validates the decomposition at the heart of Section III:
// solving problem (5)-(7) slot by slot loses almost nothing against the
// clairvoyant optimum of problem (1)-(3) over the whole horizon (eq. (8)).
// HorizonProblem states a tiny instance explicitly; SolveHorizonExhaustive
// searches all (L^N)^T assignments for the exact offline maximum of the
// realized QoE, and SolveHorizonSequential replays any per-slot Allocator.

// HorizonSlot is the data of one slot of a horizon instance.
type HorizonSlot struct {
	Budget float64
	// Rates[n][q-1] is user n's required rate at level q.
	Rates [][]float64
	// Delays[n][q-1] is user n's delivery delay at level q.
	Delays [][]float64
	// Caps[n] is B_n(t).
	Caps []float64
	// Covered[n] is the realized coverage indicator 1_n(t) (known to the
	// clairvoyant solver, estimated online by the sequential one).
	Covered []bool
}

// HorizonProblem is a complete finite-horizon instance.
type HorizonProblem struct {
	Params Params
	Slots  []HorizonSlot
	Users  int
}

// QoE evaluates the realized horizon QoE (eq. (1)) of a full assignment:
// levels[t][n] is user n's quality level in slot t. Infeasible assignments
// (budget or cap violations by upgraded users) return ok=false.
func (h *HorizonProblem) QoE(levels [][]int) (qoe float64, ok bool) {
	T := len(h.Slots)
	if T == 0 {
		return 0, true
	}
	viewed := make([][]float64, h.Users)
	for n := range viewed {
		viewed[n] = make([]float64, T)
	}
	var total float64
	for t, slot := range h.Slots {
		var used float64
		for n := 0; n < h.Users; n++ {
			q := levels[t][n]
			rate := slot.Rates[n][q-1]
			used += rate
			if q > 1 && rate > slot.Caps[n]+1e-12 {
				return 0, false
			}
			x := 0.0
			if slot.Covered[n] {
				x = float64(q)
			}
			viewed[n][t] = x
			total += x - h.Params.Alpha*slot.Delays[n][q-1]
		}
		if used > slot.Budget+1e-12 && !allBase(levels[t]) {
			return 0, false
		}
	}
	for n := 0; n < h.Users; n++ {
		total -= h.Params.Beta * HorizonVariance(viewed[n]) * float64(T)
	}
	return total, true
}

func allBase(levels []int) bool {
	for _, l := range levels {
		if l != 1 {
			return false
		}
	}
	return true
}

// SolveHorizonExhaustive finds the exact clairvoyant optimum by enumerating
// every assignment. Cost is (L^N)^T — strictly for tiny validation
// instances.
func (h *HorizonProblem) SolveHorizonExhaustive() ([][]int, float64) {
	T := len(h.Slots)
	cur := make([][]int, T)
	best := make([][]int, T)
	for t := range cur {
		cur[t] = make([]int, h.Users)
		best[t] = make([]int, h.Users)
		for n := range cur[t] {
			cur[t][n] = 1
			best[t][n] = 1
		}
	}
	bestQoE, _ := h.QoE(best)

	var rec func(t, n int)
	rec = func(t, n int) {
		if t == T {
			if q, ok := h.QoE(cur); ok && q > bestQoE {
				bestQoE = q
				for tt := range cur {
					copy(best[tt], cur[tt])
				}
			}
			return
		}
		nt, nn := t, n+1
		if nn == h.Users {
			nt, nn = t+1, 0
		}
		for q := 1; q <= h.Params.Levels; q++ {
			cur[t][n] = q
			rec(nt, nn)
		}
		cur[t][n] = 1
	}
	rec(0, 0)
	return best, bestQoE
}

// SolveHorizonSequential replays a per-slot allocator over the horizon,
// feeding it the same online state (running mean, coverage estimate) the
// real system maintains, and returns the realized horizon QoE.
func (h *HorizonProblem) SolveHorizonSequential(alloc Allocator) ([][]int, float64) {
	T := len(h.Slots)
	tracker := NewTracker(h.Params, h.Users, 1)
	levels := make([][]int, T)
	for t, slot := range h.Slots {
		users := make([]UserInput, h.Users)
		for n := 0; n < h.Users; n++ {
			users[n] = tracker.userInput(n, slot.Rates[n], slot.Delays[n], slot.Caps[n])
		}
		p := &SlotProblem{T: t + 1, Budget: slot.Budget, Users: users}
		a := alloc.Allocate(h.Params, p)
		levels[t] = a.Levels
		for n := 0; n < h.Users; n++ {
			tracker.Record(n, a.Levels[n], slot.Covered[n], slot.Delays[n][a.Levels[n]-1])
		}
	}
	qoe, _ := h.QoE(levels)
	return levels, qoe
}

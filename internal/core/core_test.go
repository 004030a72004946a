package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// testUser builds a UserInput with the M/M/1 delay of eq. (13) for a
// six-level ladder.
func testUser(delta, meanQ, cap_ float64, rates []float64) UserInput {
	delays := make([]float64, len(rates))
	for i, r := range rates {
		if r >= cap_ {
			delays[i] = 1e6
		} else {
			delays[i] = r / (cap_ - r)
		}
	}
	return UserInput{Rate: rates, Delay: delays, Delta: delta, MeanQ: meanQ, Cap: cap_}
}

var ladder = []float64{2, 4, 7, 12, 20, 33} // convex rate ladder, Mbit/s-ish

func TestObjectiveFirstSlotHasNoVariancePenalty(t *testing.T) {
	params := DefaultSimParams()
	u := testUser(1, 0, 100, ladder)
	// t=1: varWeight = 0, so h(q) = q - alpha*d(q).
	for q := 1; q <= 6; q++ {
		want := float64(q) - params.Alpha*u.Delay[q-1]
		if got := Objective(params, 1, u, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("h(%d) = %v, want %v", q, got, want)
		}
	}
}

func TestObjectivePenalizesDeviationFromMean(t *testing.T) {
	params := Params{Alpha: 0, Beta: 0.5, Levels: 6}
	u := testUser(1, 3, 1000, ladder)
	// At t large, h(q) ~ q - 0.5*(q-3)^2; the maximizer over integers is 4:
	// h(3)=3, h(4)=3.5, h(5)=3.
	h3 := Objective(params, 1000, u, 3)
	h4 := Objective(params, 1000, u, 4)
	h5 := Objective(params, 1000, u, 5)
	if !(h4 > h3 && h4 > h5) {
		t.Errorf("expected q=4 to maximize: h3=%v h4=%v h5=%v", h3, h4, h5)
	}
}

func TestObjectiveImperfectPredictionDiscountsQuality(t *testing.T) {
	params := Params{Alpha: 0, Beta: 0, Levels: 6}
	good := testUser(1.0, 0, 1000, ladder)
	bad := testUser(0.5, 0, 1000, ladder)
	for q := 1; q <= 6; q++ {
		hg := Objective(params, 5, good, q)
		hb := Objective(params, 5, bad, q)
		if math.Abs(hg-2*hb) > 1e-12 {
			t.Errorf("delta scaling wrong at q=%d: %v vs %v", q, hg, hb)
		}
	}
}

// h_n must be concave in q (decreasing increments) whenever the delay table
// is convex — the premise of Theorem 1.
func TestObjectiveConcaveProperty(t *testing.T) {
	params := DefaultSimParams()
	f := func(deltaRaw, meanRaw uint8, tRaw uint16) bool {
		delta := float64(deltaRaw) / 255
		meanQ := float64(meanRaw) / 255 * 6
		tt := int(tRaw%1000) + 1
		u := testUser(delta, meanQ, 100, ladder)
		prev := math.Inf(1)
		for q := 1; q < 6; q++ {
			inc := Objective(params, tt, u, q+1) - Objective(params, tt, u, q)
			if inc > prev+1e-9 {
				return false
			}
			prev = inc
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	params := DefaultSimParams()
	u := testUser(1, 0, 50, ladder)
	p := &SlotProblem{T: 1, Budget: 100, Users: []UserInput{u}}
	if err := p.Validate(params); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
	bad := &SlotProblem{T: 0, Budget: 100, Users: []UserInput{u}}
	if err := bad.Validate(params); err == nil {
		t.Error("t=0 should be rejected")
	}
	bad = &SlotProblem{T: 1, Budget: 100}
	if err := bad.Validate(params); err == nil {
		t.Error("no users should be rejected")
	}
	u2 := u
	u2.Delta = 1.5
	bad = &SlotProblem{T: 1, Budget: 100, Users: []UserInput{u2}}
	if err := bad.Validate(params); err == nil {
		t.Error("delta > 1 should be rejected")
	}
	u3 := u
	u3.Rate = []float64{1}
	bad = &SlotProblem{T: 1, Budget: 100, Users: []UserInput{u3}}
	if err := bad.Validate(params); err == nil {
		t.Error("short rate table should be rejected")
	}
	p.Values = make([]float64, params.Levels)
	if err := p.Validate(params); err != nil {
		t.Errorf("one value row per user rejected: %v", err)
	}
	p.Values = make([]float64, params.Levels+1)
	if err := p.Validate(params); err == nil {
		t.Error("a value table that is not users x levels should be rejected")
	}
}

func randomSlotProblem(rng *rand.Rand, params Params, n int) *SlotProblem {
	users := make([]UserInput, n)
	for i := range users {
		scale := 0.5 + rng.Float64()
		rates := make([]float64, params.Levels)
		for q := range rates {
			rates[q] = ladder[q] * scale
		}
		cap_ := 20 + rng.Float64()*80
		users[i] = testUser(0.5+rng.Float64()*0.5, rng.Float64()*6, cap_, rates)
	}
	return &SlotProblem{
		T:      1 + rng.Intn(500),
		Budget: float64(n) * (10 + rng.Float64()*30),
		Users:  users,
	}
}

func TestDVGreedyHalfApproximation(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(21))
	dvgreedy := NewSolverAllocator()
	for trial := 0; trial < 150; trial++ {
		p := randomSlotProblem(rng, params, 2+rng.Intn(4))
		got := dvgreedy.Allocate(params, p)
		opt := Optimal{}.Allocate(params, p)
		// The guarantee is on the achieved objective relative to optimum.
		// h_n can be negative; compare against the base-shifted values to
		// keep the ratio meaningful, and always require got >= opt/2 when
		// the optimum is positive.
		if opt.Value > 0 && got.Value < opt.Value/2-1e-9 {
			t.Fatalf("trial %d: DV %v < half of optimal %v", trial, got.Value, opt.Value)
		}
		if got.Rate > p.Budget+1e-9 {
			t.Fatalf("trial %d: allocation rate %v exceeds budget %v", trial, got.Rate, p.Budget)
		}
	}
}

func TestFractionalBoundDominates(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 100; trial++ {
		p := randomSlotProblem(rng, params, 2+rng.Intn(3))
		opt := Optimal{}.Allocate(params, p)
		if vp := FractionalUpperBound(params, p); vp < opt.Value-1e-9 {
			t.Fatalf("trial %d: V_p %v below optimum %v", trial, vp, opt.Value)
		}
	}
}

func TestAllocatorsRespectPerUserCaps(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(23))
	allocators := []Allocator{NewSolverAllocator(), DensityOnly{}, ValueOnly{}, Optimal{}}
	for trial := 0; trial < 50; trial++ {
		p := randomSlotProblem(rng, params, 3)
		for _, alg := range allocators {
			a := alg.Allocate(params, p)
			for n, l := range a.Levels {
				if l > 1 && p.Users[n].Rate[l-1] > p.Users[n].Cap+1e-9 {
					t.Fatalf("%s violated user %d cap: level %d rate %v > %v",
						alg.Name(), n, l, p.Users[n].Rate[l-1], p.Users[n].Cap)
				}
			}
		}
	}
}

func TestAllocatorNames(t *testing.T) {
	tests := []struct {
		alg  Allocator
		want string
	}{
		{NewSolverAllocator(), "dvgreedy"},
		{DensityOnly{}, "density"},
		{ValueOnly{}, "value"},
		{Optimal{}, "optimal"},
	}
	for _, tt := range tests {
		if got := tt.alg.Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
}

func TestDVGreedyBeatsOrMatchesSinglePasses(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(24))
	dvgreedy := NewSolverAllocator()
	for trial := 0; trial < 100; trial++ {
		p := randomSlotProblem(rng, params, 4)
		dv := dvgreedy.Allocate(params, p)
		d := DensityOnly{}.Allocate(params, p)
		v := ValueOnly{}.Allocate(params, p)
		if dv.Value+1e-12 < math.Max(d.Value, v.Value) {
			t.Fatalf("trial %d: DV %v below best single pass (%v, %v)",
				trial, dv.Value, d.Value, v.Value)
		}
	}
}

func TestObjectiveTermsDecomposition(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		p := randomSlotProblem(rng, params, 3)
		for _, u := range p.Users {
			for q := 1; q <= params.Levels; q++ {
				terms := ObjectiveTerms(params, p.T, u, q)
				want := Objective(params, p.T, u, q)
				if got := terms.Quality - terms.Delay - terms.Variance; math.Abs(got-want) > 1e-9 {
					t.Fatalf("terms %+v sum to %v, Objective = %v", terms, got, want)
				}
				if terms.Delay < 0 || terms.Variance < 0 {
					t.Fatalf("negative penalty terms: %+v", terms)
				}
			}
		}
	}
}

func TestAllocateTracedMatchesAllocate(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(7))
	allocs := []TracingAllocator{NewSolverAllocator(), DensityOnly{}, ValueOnly{}}
	for trial := 0; trial < 30; trial++ {
		p := randomSlotProblem(rng, params, 6)
		for _, a := range allocs {
			plain := a.Allocate(params, p)
			var tr SlotTrace
			traced := a.AllocateTraced(params, p, &tr)
			if plain.Value != traced.Value || plain.Rate != traced.Rate {
				t.Fatalf("%s: traced %+v != plain %+v", a.Name(), traced, plain)
			}
			// Also accept a nil trace.
			nilTraced := a.AllocateTraced(params, p, nil)
			if nilTraced.Value != plain.Value {
				t.Fatalf("%s: nil-traced value differs", a.Name())
			}
		}
	}
}

func TestDVGreedyTraceExplainsBranch(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(3))
	sawRejection := false
	dvgreedy := NewSolverAllocator()
	for trial := 0; trial < 200 && !sawRejection; trial++ {
		p := randomSlotProblem(rng, params, 6)
		var tr SlotTrace
		dvgreedy.AllocateTraced(params, p, &tr)
		if tr.Branch != "density" && tr.Branch != "value" {
			t.Fatalf("branch = %q", tr.Branch)
		}
		for _, rej := range tr.Rejections {
			sawRejection = true
			if rej.Constraint != "user-cap" && rej.Constraint != "budget" {
				t.Fatalf("rejection constraint = %q", rej.Constraint)
			}
			if rej.User < 0 || rej.User >= len(p.Users) {
				t.Fatalf("rejection user out of range: %+v", rej)
			}
			if rej.Level < 2 || rej.Level > params.Levels {
				t.Fatalf("rejection level out of range: %+v", rej)
			}
		}
	}
	if !sawRejection {
		t.Error("no quality_verification rejection observed across 200 random slots")
	}
}

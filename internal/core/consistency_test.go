package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAllocationValueConsistency: every allocator's reported Value must
// equal the sum of Objective over its chosen levels, and Rate the sum of
// the chosen rates.
func TestAllocationValueConsistency(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(81))
	allocators := []Allocator{NewSolverAllocator(), DensityOnly{}, ValueOnly{}, Optimal{}, DPOptimal{}}
	for trial := 0; trial < 40; trial++ {
		p := randomSlotProblem(rng, params, 3)
		for _, alg := range allocators {
			a := alg.Allocate(params, p)
			var wantValue, wantRate float64
			for n, l := range a.Levels {
				wantValue += Objective(params, p.T, p.Users[n], l)
				wantRate += p.Users[n].Rate[l-1]
			}
			if math.Abs(a.Value-wantValue) > 1e-9 {
				t.Fatalf("%s: Value %v != recomputed %v", alg.Name(), a.Value, wantValue)
			}
			if math.Abs(a.Rate-wantRate) > 1e-9 {
				t.Fatalf("%s: Rate %v != recomputed %v", alg.Name(), a.Rate, wantRate)
			}
		}
	}
}

// TestObjectiveDeltaZero: with delta = 0 (prediction never covers), the
// quality term vanishes and only the delay penalty plus the constant
// variance floor remain, so the allocator should stay at base level.
func TestObjectiveDeltaZero(t *testing.T) {
	params := DefaultSimParams()
	u := testUser(0, 3, 100, ladder)
	p := &SlotProblem{T: 10, Budget: 1000, Users: []UserInput{u}}
	a := NewSolverAllocator().Allocate(params, p)
	if a.Levels[0] != 1 {
		t.Errorf("delta=0 should stay at base, got level %d", a.Levels[0])
	}
}

// TestObjectiveMonotoneInDelta: the marginal benefit of a quality upgrade
// grows with the prediction success probability.
func TestObjectiveMonotoneInDeltaProperty(t *testing.T) {
	params := Params{Alpha: 0, Beta: 0, Levels: 6}
	f := func(d1Raw, d2Raw uint8, qRaw uint8) bool {
		d1 := float64(d1Raw) / 255
		d2 := float64(d2Raw) / 255
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		q := int(qRaw%5) + 1
		u1 := testUser(d1, 0, 100, ladder)
		u2 := testUser(d2, 0, 100, ladder)
		inc1 := Objective(params, 5, u1, q+1) - Objective(params, 5, u1, q)
		inc2 := Objective(params, 5, u2, q+1) - Objective(params, 5, u2, q)
		return inc1 <= inc2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDefaultParams pins the paper's hyperparameters.
func TestDefaultParams(t *testing.T) {
	simP := DefaultSimParams()
	if simP.Alpha != 0.02 || simP.Beta != 0.5 || simP.Levels != 6 {
		t.Errorf("sim params = %+v, want alpha=0.02 beta=0.5 L=6", simP)
	}
	sysP := DefaultSystemParams()
	if sysP.Alpha != 0.1 || sysP.Beta != 0.5 || sysP.Levels != 6 {
		t.Errorf("system params = %+v, want alpha=0.1 beta=0.5 L=6", sysP)
	}
}

// TestTrackerConvergesToTrueDelta: with Bernoulli coverage at rate p, the
// tracker's delta estimate converges to p (the paper: "the average
// prediction probability ... converges to delta_n as t -> infinity").
func TestTrackerConvergesToTrueDelta(t *testing.T) {
	tr := NewTracker(DefaultSimParams(), 1, 0.5)
	rng := rand.New(rand.NewSource(82))
	const p = 0.87
	for i := 0; i < 20000; i++ {
		tr.Record(0, 3, rng.Float64() < p, 0)
	}
	if got := tr.Delta(0); math.Abs(got-p) > 0.02 {
		t.Errorf("delta estimate = %v, want about %v", got, p)
	}
}

// TestDVGreedyEquivalentToBestSinglePassOnSeparableProblems: when the
// budget never binds, all three greedy variants coincide with independent
// per-user maximization.
func TestGreedyUnconstrainedIsPerUserArgmax(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(83))
	dvgreedy := NewSolverAllocator()
	for trial := 0; trial < 30; trial++ {
		p := randomSlotProblem(rng, params, 3)
		p.Budget = 1e9
		got := dvgreedy.Allocate(params, p)
		for n, u := range p.Users {
			best, bestVal := 1, Objective(params, p.T, u, 1)
			for q := 2; q <= params.Levels; q++ {
				if u.Rate[q-1] > u.Cap {
					continue
				}
				if v := Objective(params, p.T, u, q); v > bestVal {
					best, bestVal = q, v
				}
			}
			// The greedy climbs monotonically and stops at negative
			// increments; for concave h this is exactly the argmax.
			if got.Levels[n] != best {
				gotVal := Objective(params, p.T, u, got.Levels[n])
				if math.Abs(gotVal-bestVal) > 1e-9 {
					t.Fatalf("trial %d user %d: level %d (h=%v), want %d (h=%v)",
						trial, n, got.Levels[n], gotVal, best, bestVal)
				}
			}
		}
	}
}

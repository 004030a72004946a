package knapsack

import (
	"math/rand"
	"testing"
)

// TestSolverMatchesReference is the core differential guarantee of the heap
// rewrite: on thousands of randomized instances across every shape family,
// the Solver's three passes return bit-identical solutions and traces to
// the original rescan engine.
func TestSolverMatchesReference(t *testing.T) {
	var s Solver
	for _, shape := range allShapes() {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1234))
			for trial := 0; trial < 600; trial++ {
				p := shape.gen(rng)

				var refTr, gotTr CombinedTrace
				ref := p.ReferenceCombinedTraced(&refTr)
				got := s.CombinedTraced(p, &gotTr)
				equalSolutions(t, ref, got, "combined")
				equalPassTraces(t, refTr.Density, gotTr.Density, "combined/density")
				equalPassTraces(t, refTr.Value, gotTr.Value, "combined/value")
				if refTr.Picked != gotTr.Picked {
					t.Fatalf("picked %v != reference %v", gotTr.Picked, refTr.Picked)
				}

				var refD, gotD PassTrace
				equalSolutions(t, p.referenceGreedy(byDensity, &refD),
					s.densityGreedy(p, &gotD), "density")
				equalPassTraces(t, refD, gotD, "density")

				var refV, gotV PassTrace
				equalSolutions(t, p.referenceGreedy(byValue, &refV),
					s.valueGreedy(p, &gotV), "value")
				equalPassTraces(t, refV, gotV, "value")

				checkFeasible(t, p, got, "solver")
			}
		})
	}
}

// TestPooledAPIMatchesReference checks the public Problem methods (now
// backed by a pooled Solver) against the reference engine, including that
// the returned Levels are detached from solver scratch.
func TestPooledAPIMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		p := randomArbitraryProblem(rng, 1+rng.Intn(8), 1+rng.Intn(6))
		a := p.Combined()
		b := p.Combined()
		equalSolutions(t, p.ReferenceCombined(), a, "pooled combined")
		// Mutating one result must not affect the other (no shared scratch).
		if len(a.Levels) > 0 {
			a.Levels[0] = -99
			if b.Levels[0] == -99 {
				t.Fatal("pooled Combined returned aliased Levels")
			}
		}
		equalSolutions(t, p.referenceGreedy(byDensity, nil), p.DensityGreedy(), "pooled density")
		equalSolutions(t, p.referenceGreedy(byValue, nil), p.ValueGreedy(), "pooled value")
	}
}

// TestTieBreakDeterministic is the regression test for the explicit
// tie-break rule: on exact score ties the lowest item index upgrades first,
// in both engines and both passes. With two identical items and budget for
// exactly one upgrade, item 0 must win and item 1 must carry the budget
// rejection.
func TestTieBreakDeterministic(t *testing.T) {
	p := &Problem{
		Budget: 1,
		Items: []Item{
			{Values: []float64{0, 1}, Weights: []float64{0, 1}, Cap: 100},
			{Values: []float64{0, 1}, Weights: []float64{0, 1}, Cap: 100},
		},
	}
	var s Solver
	for _, run := range []struct {
		name  string
		solve func(tr *PassTrace) Solution
	}{
		{"reference/density", func(tr *PassTrace) Solution { return p.referenceGreedy(byDensity, tr) }},
		{"reference/value", func(tr *PassTrace) Solution { return p.referenceGreedy(byValue, tr) }},
		{"solver/density", func(tr *PassTrace) Solution { return s.densityGreedy(p, tr) }},
		{"solver/value", func(tr *PassTrace) Solution { return s.valueGreedy(p, tr) }},
	} {
		var tr PassTrace
		sol := run.solve(&tr)
		if sol.Levels[0] != 2 || sol.Levels[1] != 1 {
			t.Errorf("%s: levels = %v, want [2 1] (lowest index wins the tie)", run.name, sol.Levels)
		}
		if tr.Upgrades != 1 || len(tr.Rejections) != 1 || tr.Rejections[0].Item != 1 {
			t.Errorf("%s: trace = %+v, want one upgrade and a rejection on item 1", run.name, tr)
		}
	}

	// Larger all-tied instance: upgrades must fill items in index order.
	big := exactTieProblem(6, 3)
	sol := s.densityGreedy(big, nil)
	want := []int{2, 2, 2, 1, 1, 1}
	for i := range want {
		if sol.Levels[i] != want[i] {
			t.Fatalf("tied instance levels = %v, want %v", sol.Levels, want)
		}
	}
	if !betterCandidate(1, 2, 1, 5) {
		t.Error("betterCandidate must prefer the lower index on an exact tie")
	}
	if betterCandidate(1, 5, 1, 2) {
		t.Error("betterCandidate must keep the lower-index incumbent on an exact tie")
	}
}

// TestSolverZeroAllocSteadyState is the acceptance gate for the fast path:
// once the scratch buffers are warm, a 30-user slot solve performs zero
// heap allocations.
func TestSolverZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	p := randomConcaveProblem(rng, 30, 6)
	var s Solver
	s.Combined(p) // warm the scratch buffers
	if allocs := testing.AllocsPerRun(100, func() { s.Combined(p) }); allocs != 0 {
		t.Errorf("steady-state Solver.Combined allocates %v times per op, want 0", allocs)
	}
	var tr CombinedTrace
	s.CombinedTraced(p, &tr)
	if allocs := testing.AllocsPerRun(100, func() {
		tr.Density.Rejections = tr.Density.Rejections[:0]
		tr.Value.Rejections = tr.Value.Rejections[:0]
		s.CombinedTraced(p, &tr)
	}); allocs != 0 {
		t.Errorf("steady-state traced solve allocates %v times per op, want 0", allocs)
	}
}

// TestSolverScratchReuseAcrossSizes checks that a Solver survives being
// reused across problems of very different sizes (shrinking and growing
// buffers), still matching the reference each time.
func TestSolverScratchReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var s Solver
	for trial := 0; trial < 60; trial++ {
		n := []int{1, 200, 3, 47, 1000, 12}[trial%6]
		p := randomConcaveProblem(rng, n, 1+rng.Intn(6))
		equalSolutions(t, p.ReferenceCombined(), s.Combined(p), "resize")
	}
}

// TestSingleLevelAndEmptyItems covers the degenerate edges of the heap
// path: items with one level never enter the heap; a problem of only such
// items returns the base solution untouched.
func TestSingleLevelAndEmptyItems(t *testing.T) {
	p := &Problem{
		Budget: 10,
		Items: []Item{
			{Values: []float64{3}, Weights: []float64{1}, Cap: 5},
			{Values: []float64{2}, Weights: []float64{0.5}, Cap: 5},
		},
	}
	var s Solver
	got := s.Combined(p)
	if got.Levels[0] != 1 || got.Levels[1] != 1 {
		t.Fatalf("levels = %v, want all base", got.Levels)
	}
	if got.Value != 5 || got.Weight != 1.5 {
		t.Fatalf("value/weight = %v/%v, want 5/1.5", got.Value, got.Weight)
	}
	equalSolutions(t, p.ReferenceCombined(), got, "single-level")
}

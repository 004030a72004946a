package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/knapsack"
)

func equalAllocations(t *testing.T, want, got Allocation, what string) {
	t.Helper()
	if len(want.Levels) != len(got.Levels) {
		t.Fatalf("%s: %d levels, want %d", what, len(got.Levels), len(want.Levels))
	}
	for i := range want.Levels {
		if want.Levels[i] != got.Levels[i] {
			t.Fatalf("%s: levels %v, want %v", what, got.Levels, want.Levels)
		}
	}
	if math.Float64bits(want.Value) != math.Float64bits(got.Value) {
		t.Fatalf("%s: value %v (bits %x), want %v (bits %x)",
			what, got.Value, math.Float64bits(got.Value), want.Value, math.Float64bits(want.Value))
	}
	if math.Float64bits(want.Rate) != math.Float64bits(got.Rate) {
		t.Fatalf("%s: rate %v, want %v", what, got.Rate, want.Rate)
	}
}

func equalSlotTraces(t *testing.T, want, got SlotTrace, what string) {
	t.Helper()
	if want.Branch != got.Branch {
		t.Fatalf("%s: branch %q, want %q", what, got.Branch, want.Branch)
	}
	if want.Upgrades != got.Upgrades {
		t.Fatalf("%s: %d upgrades, want %d", what, got.Upgrades, want.Upgrades)
	}
	if len(want.Rejections) != len(got.Rejections) {
		t.Fatalf("%s: rejections %+v, want %+v", what, got.Rejections, want.Rejections)
	}
	for i := range want.Rejections {
		if want.Rejections[i] != got.Rejections[i] {
			t.Fatalf("%s: rejection %d is %+v, want %+v",
				what, i, got.Rejections[i], want.Rejections[i])
		}
	}
}

// referenceAllocate is Algorithm 1 on knapsack's rescan engine, the oracle
// the heap-backed SolverAllocator is differentially tested against. tr, when
// non-nil, receives the returned pass's trace.
func referenceAllocate(params Params, p *SlotProblem, tr *SlotTrace) Allocation {
	var kt knapsack.CombinedTrace
	sol := LowerProblem(params, p).ReferenceCombinedTraced(&kt)
	if tr != nil {
		pass := kt.Density
		if kt.Picked == knapsack.BranchValue {
			pass = kt.Value
		}
		fillTrace(tr, kt.Picked.String(), pass)
	}
	return fromKnapsack(sol)
}

// TestSolverAllocatorMatchesDVGreedy drives ONE SolverAllocator across many
// slots of varying size (the sequential-reuse contract) and requires every
// allocation and trace to be bit-identical to DV-greedy as the paper states
// it: the rescan engine, which shares no heap code with the allocator.
func TestSolverAllocatorMatchesDVGreedy(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(77))
	a := NewSolverAllocator()
	for trial := 0; trial < 400; trial++ {
		p := randomSlotProblem(rng, params, 1+rng.Intn(40))
		equalAllocations(t, referenceAllocate(params, p, nil), a.Allocate(params, p),
			fmt.Sprintf("trial %d", trial))

		var wantTr, gotTr SlotTrace
		want := referenceAllocate(params, p, &wantTr)
		got := a.AllocateTraced(params, p, &gotTr)
		equalAllocations(t, want, got, fmt.Sprintf("trial %d traced", trial))
		equalSlotTraces(t, wantTr, gotTr, fmt.Sprintf("trial %d trace", trial))
	}
}

// TestPreLoweredValuesMatchRecomputed interleaves problems that carry their
// value table (SlotProblem.Values, written by ObjectiveRow as an engine's
// build does) with problems that do not, on ONE allocator: every allocation
// must be bit-identical to the rescan engine lowering from scratch, and a
// solve without a table must not write into the slab an earlier problem
// handed over.
func TestPreLoweredValuesMatchRecomputed(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(80))
	solver := NewSolverAllocator()
	var slab, slabCopy []float64
	for trial := 0; trial < 200; trial++ {
		p := randomSlotProblem(rng, params, 1+rng.Intn(40))
		want := referenceAllocate(params, p, nil)
		if trial%2 == 0 {
			slab = make([]float64, len(p.Users)*params.Levels)
			for i, u := range p.Users {
				ObjectiveRow(slab[i*params.Levels:(i+1)*params.Levels], params, p.T, u)
			}
			slabCopy = append(slabCopy[:0], slab...)
			p.Values = slab
			if err := p.Validate(params); err != nil {
				t.Fatal(err)
			}
		}
		what := fmt.Sprintf("trial %d (pre-lowered %v)", trial, p.Values != nil)
		equalAllocations(t, want, referenceAllocate(params, p, nil), what+" reference")
		equalAllocations(t, want, solver.Allocate(params, p), what+" solver")
		equalAllocations(t, want, solver.AllocateShared(params, p), what+" solver shared")
		for i := range slab {
			if math.Float64bits(slab[i]) != math.Float64bits(slabCopy[i]) {
				t.Fatalf("%s: an allocator wrote into the caller's value slab at %d", what, i)
			}
		}
	}
}

// TestSolverAllocatorLevelsNotAliased guards the Clone contract: the Levels
// slice handed to the caller must survive the allocator's next solve (flight
// recorder records retain it).
func TestSolverAllocatorLevelsNotAliased(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(78))
	a := NewSolverAllocator()
	p := randomSlotProblem(rng, params, 8)
	first := a.Allocate(params, p)
	keep := append([]int(nil), first.Levels...)
	for i := 0; i < 10; i++ {
		a.Allocate(params, randomSlotProblem(rng, params, 8))
	}
	for i := range keep {
		if first.Levels[i] != keep[i] {
			t.Fatalf("levels mutated by later solves: %v, want %v", first.Levels, keep)
		}
	}
}

// TestLowerProblemMatchesAllocator checks the exported lowering is the one
// the allocator solves on its own scratch: feeding it to the knapsack solver
// reproduces SolverAllocator bit-for-bit.
func TestLowerProblemMatchesAllocator(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < 50; trial++ {
		p := randomSlotProblem(rng, params, 1+rng.Intn(12))
		want := NewSolverAllocator().Allocate(params, p)
		got := fromKnapsack(LowerProblem(params, p).Combined())
		equalAllocations(t, want, got, fmt.Sprintf("trial %d", trial))
	}
}

// BenchmarkSolveSlot measures one slot allocation end to end (lowering +
// solve) on a reused allocator.
func BenchmarkSolveSlot(b *testing.B) {
	params := DefaultSimParams()
	for _, n := range []int{5, 30, 200} {
		p := randomSlotProblem(rand.New(rand.NewSource(int64(n))), params, n)
		b.Run(fmt.Sprintf("solver/N=%d", n), func(b *testing.B) {
			a := NewSolverAllocator()
			a.Allocate(params, p) // warm scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Allocate(params, p)
			}
		})
	}
}

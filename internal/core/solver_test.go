package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
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

// TestSolverAllocatorMatchesDVGreedy drives ONE SolverAllocator across many
// slots of varying size (the sequential-reuse contract) and requires every
// allocation and trace to be bit-identical to the stateless DVGreedy.
func TestSolverAllocatorMatchesDVGreedy(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(77))
	a := NewSolverAllocator()
	if a.Name() != (DVGreedy{}).Name() {
		t.Fatalf("name %q, want %q: same algorithm, different engine", a.Name(), (DVGreedy{}).Name())
	}
	for trial := 0; trial < 400; trial++ {
		p := randomSlotProblem(rng, params, 1+rng.Intn(40))
		equalAllocations(t, DVGreedy{}.Allocate(params, p), a.Allocate(params, p),
			fmt.Sprintf("trial %d", trial))

		var wantTr, gotTr SlotTrace
		want := DVGreedy{}.AllocateTraced(params, p, &wantTr)
		got := a.AllocateTraced(params, p, &gotTr)
		equalAllocations(t, want, got, fmt.Sprintf("trial %d traced", trial))
		equalSlotTraces(t, wantTr, gotTr, fmt.Sprintf("trial %d trace", trial))
	}
}

// TestPreLoweredValuesMatchRecomputed interleaves problems that carry their
// value table (SlotProblem.Values, written by ObjectiveRow as an engine's
// build does) with problems that do not, on ONE allocator of each kind:
// every allocation must be bit-identical to lowering from scratch, and a
// solve without a table must not write into the slab an earlier problem
// handed over.
func TestPreLoweredValuesMatchRecomputed(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(80))
	solver, warm := NewSolverAllocator(), NewWarmAllocator()
	var slab, slabCopy []float64
	for trial := 0; trial < 200; trial++ {
		p := randomSlotProblem(rng, params, 1+rng.Intn(40))
		want := DVGreedy{}.Allocate(params, p)
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
		equalAllocations(t, want, DVGreedy{}.Allocate(params, p), what+" dvgreedy")
		equalAllocations(t, want, solver.Allocate(params, p), what+" solver")
		equalAllocations(t, want, solver.AllocateShared(params, p), what+" solver shared")
		equalAllocations(t, want, warm.Allocate(params, p), what+" warm")
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

// TestAllocateBatchMatchesSequential checks the batch API returns, in order,
// exactly what per-problem Allocate returns, for several worker counts.
func TestAllocateBatchMatchesSequential(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(79))
	problems := make([]*SlotProblem, 37)
	want := make([]Allocation, len(problems))
	for i := range problems {
		problems[i] = randomSlotProblem(rng, params, 1+rng.Intn(25))
		want[i] = DVGreedy{}.Allocate(params, problems[i])
	}
	for _, workers := range []int{-1, 0, 1, 2, 7, 64} {
		got := AllocateBatch(params, problems, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			equalAllocations(t, want[i], got[i], fmt.Sprintf("workers=%d problem %d", workers, i))
		}
	}
	if out := AllocateBatch(params, nil, 4); len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
}

// TestLowerProblemMatchesAllocator checks the exported lowering is the one
// the allocators solve: feeding it to the knapsack solver reproduces
// DVGreedy bit-for-bit.
func TestLowerProblemMatchesAllocator(t *testing.T) {
	params := DefaultSimParams()
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < 50; trial++ {
		p := randomSlotProblem(rng, params, 1+rng.Intn(12))
		want := DVGreedy{}.Allocate(params, p)
		got := fromKnapsack(LowerProblem(params, p).Combined())
		equalAllocations(t, want, got, fmt.Sprintf("trial %d", trial))
	}
}

// BenchmarkSolveSlot measures one slot allocation end to end (lowering +
// solve) for the reusable solver-backed allocator against the stateless
// DVGreedy baseline.
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
		b.Run(fmt.Sprintf("dvgreedy/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DVGreedy{}.Allocate(params, p)
			}
		})
	}
}

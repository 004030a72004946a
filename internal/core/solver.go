package core

import (
	"slices"

	"repro/internal/knapsack"
)

// SolverAllocator is Algorithm 1 of the paper (DV-greedy): the better of a
// density-greedy and a value-greedy pass over the quality-upgrade
// increments, run on the heap-based incremental knapsack.Solver with
// reusable lowering buffers. A steady-state slot solve reuses the same
// scratch for the objective tables, the item views and the solver's heap,
// so the only per-Allocate allocation is the Levels slice handed back to
// the caller (which call sites retain, e.g. in flight recorder records).
//
// Decisions, values and traces are bit-identical to the original rescan of
// Algorithm 1 (knapsack's ReferenceCombined), which the differential tests
// here and in internal/knapsack enforce. A SolverAllocator is safe for
// sequential reuse across slots (the Allocator contract) but not for
// concurrent use; build one per goroutine.
type SolverAllocator struct {
	items  []knapsack.Item
	values []float64
	prob   knapsack.Problem
	solver knapsack.Solver
}

// NewSolverAllocator returns a fresh Algorithm 1 allocator.
func NewSolverAllocator() *SolverAllocator { return &SolverAllocator{} }

// Name implements Allocator.
func (a *SolverAllocator) Name() string { return "dvgreedy" }

// lower rebuilds the knapsack view of p on the allocator's scratch. The
// value table is toKnapsack's (p.Values aliased when present, else the same
// ObjectiveRow calls in the same order), so LowerProblem and the
// single-pass ablations see the identical instance.
func (a *SolverAllocator) lower(params Params, p *SlotProblem) *knapsack.Problem {
	n, levels := len(p.Users), params.Levels
	vals := valueTable(params, p, a.values)
	if len(p.Values) == 0 {
		a.values = vals // keep the (possibly regrown) scratch, never the caller's slab
	}
	// The row count often creeps up a few rows a slot as sessions arrive:
	// grow by append's amortized steps, not to exactly n each time.
	a.items = slices.Grow(a.items[:0], n)
	items := a.items[:n]
	for i := range p.Users {
		u := &p.Users[i]
		items[i] = knapsack.Item{Values: vals[i*levels : (i+1)*levels : (i+1)*levels], Weights: u.Rate, Cap: u.Cap}
	}
	a.prob = knapsack.Problem{Items: items, Budget: p.Budget}
	return &a.prob
}

// Allocate implements Allocator.
func (a *SolverAllocator) Allocate(params Params, p *SlotProblem) Allocation {
	return fromKnapsack(a.solver.Combined(a.lower(params, p)).Clone())
}

// AllocateTraced implements TracingAllocator: the trace reflects the pass
// (density or value) whose solution was returned.
func (a *SolverAllocator) AllocateTraced(params Params, p *SlotProblem, tr *SlotTrace) Allocation {
	if tr == nil {
		return a.Allocate(params, p)
	}
	var kt knapsack.CombinedTrace
	kt.Density.TopK, kt.Value.TopK = tr.TopK, tr.TopK
	sol := a.solver.CombinedTraced(a.lower(params, p), &kt)
	pass := kt.Density
	if kt.Picked == knapsack.BranchValue {
		pass = kt.Value
	}
	fillTrace(tr, kt.Picked.String(), pass)
	return fromKnapsack(sol.Clone())
}

// AllocateShared implements SharedAllocator: Allocate without the
// defensive clone. The returned Levels alias solver scratch and are only
// valid until the next call on this allocator — the obs-disabled slot-loop
// hot path uses it to stay allocation-free.
func (a *SolverAllocator) AllocateShared(params Params, p *SlotProblem) Allocation {
	return fromKnapsack(a.solver.Combined(a.lower(params, p)))
}

// SharedAllocator is an Allocator that can additionally hand back
// scratch-aliased allocations (no per-slot Levels clone) for steady-state
// slot loops that must not allocate. Callers own nothing: the result is
// invalidated by the next Allocate/AllocateShared call.
type SharedAllocator interface {
	Allocator
	AllocateShared(params Params, p *SlotProblem) Allocation
}

// LowerProblem exposes the SlotProblem -> nonlinear-knapsack lowering used
// by every Algorithm 1 allocator, for benchmarks and tools that want to
// drive internal/knapsack solvers directly.
func LowerProblem(params Params, p *SlotProblem) *knapsack.Problem {
	return toKnapsack(params, p)
}

var (
	_ Allocator        = (*SolverAllocator)(nil)
	_ TracingAllocator = (*SolverAllocator)(nil)
	_ SharedAllocator  = (*SolverAllocator)(nil)
)

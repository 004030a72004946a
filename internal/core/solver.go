package core

import (
	"repro/internal/knapsack"
)

// SolverAllocator is Algorithm 1 on the heap-based incremental
// knapsack.Solver with reusable lowering buffers: a steady-state slot
// solve reuses the same scratch for the objective tables, the item views
// and the solver's heap, so the only per-Allocate allocation is the Levels
// slice handed back to the caller (which call sites retain, e.g. in flight
// recorder records).
//
// Decisions, values and traces are bit-identical to DVGreedy — both run
// the same Algorithm 1 over the same lowered instance; the solver engine
// is differentially tested against the original scan in
// internal/knapsack. A SolverAllocator is safe for sequential reuse
// across slots (the Allocator contract) but not for concurrent use; build
// one per goroutine.
type SolverAllocator struct {
	lowerer
	solver knapsack.Solver
}

// NewSolverAllocator returns a fresh solver-backed Algorithm 1 allocator.
func NewSolverAllocator() *SolverAllocator { return &SolverAllocator{} }

// Name implements Allocator. It reports the same algorithm name as
// DVGreedy: the decisions are identical, only the engine differs.
func (a *SolverAllocator) Name() string { return "dvgreedy" }

// lowerer rebuilds the knapsack view of a SlotProblem on reusable scratch;
// it is the shared lowering stage of every scratch-reusing Algorithm 1
// allocator (SolverAllocator, WarmAllocator).
type lowerer struct {
	items  []knapsack.Item
	values []float64
	prob   knapsack.Problem
}

// lower rebuilds the knapsack view of p on the allocator's scratch. The
// value table is toKnapsack's (p.Values aliased when present, else the same
// ObjectiveRow calls in the same order), keeping solutions bit-identical to
// the DVGreedy path.
func (a *lowerer) lower(params Params, p *SlotProblem) *knapsack.Problem {
	n, levels := len(p.Users), params.Levels
	vals := valueTable(params, p, a.values)
	if len(p.Values) == 0 {
		a.values = vals // keep the (possibly regrown) scratch, never the caller's slab
	}
	if cap(a.items) < n {
		a.items = make([]knapsack.Item, n)
	}
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

// AllocateTraced implements TracingAllocator; the trace is identical to
// DVGreedy's.
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

// WarmAllocator is SolverAllocator on the warm-started engine: each slot's
// solve replays the previous slot's pick log and repairs it around the few
// sessions whose channel estimates moved, falling back to a cold solve on
// churn (see knapsack.WarmSolver). Decisions and traces remain
// bit-identical to DVGreedy on every problem — warm-starting changes how
// fast the answer is reached, never the answer.
//
// Two caveats decide whether it actually warm-starts:
//
//   - the diff is positional, so the caller must present users in a stable
//     order across slots (the server's slot loop sorts its session snapshot
//     by user ID for exactly this reason);
//   - an objective whose lowered values drift globally every slot — e.g.
//     ObjectiveTerms' (t-1)/t variance weight while T advances — dirties
//     every item and degrades the WarmAllocator to a cold solve plus a
//     diff. The win lives where ladders are sparse-perturbed between
//     consecutive solves (fixed-T resolves, estimator-driven rate updates).
type WarmAllocator struct {
	lowerer
	solver knapsack.WarmSolver
}

// NewWarmAllocator returns a fresh warm-starting Algorithm 1 allocator.
func NewWarmAllocator() *WarmAllocator { return &WarmAllocator{} }

// Name implements Allocator; decisions are identical to DVGreedy.
func (a *WarmAllocator) Name() string { return "dvgreedy" }

// Allocate implements Allocator.
func (a *WarmAllocator) Allocate(params Params, p *SlotProblem) Allocation {
	return fromKnapsack(a.solver.Combined(a.lower(params, p)).Clone())
}

// AllocateShared implements SharedAllocator; see
// SolverAllocator.AllocateShared for the aliasing contract.
func (a *WarmAllocator) AllocateShared(params Params, p *SlotProblem) Allocation {
	return fromKnapsack(a.solver.Combined(a.lower(params, p)))
}

// AllocateTraced implements TracingAllocator; the trace is identical to
// DVGreedy's.
func (a *WarmAllocator) AllocateTraced(params Params, p *SlotProblem, tr *SlotTrace) Allocation {
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

// Stats exposes the warm/cold resolution counters of the underlying
// engine.
func (a *WarmAllocator) Stats() knapsack.WarmStats { return a.solver.Stats() }

// Reset forces the next solve cold; call it when the user<->index
// correspondence breaks (session set reordered or repacked).
func (a *WarmAllocator) Reset() { a.solver.Reset() }

// LowerProblem exposes the SlotProblem -> nonlinear-knapsack lowering used
// by every Algorithm 1 allocator, for benchmarks and tools that want to
// drive internal/knapsack solvers directly.
func LowerProblem(params Params, p *SlotProblem) *knapsack.Problem {
	return toKnapsack(params, p)
}

// AllocateBatch solves independent slot problems (separate budgets, e.g.
// distinct rooms, servers or replayed slots) concurrently on a worker
// pool via knapsack.SolveBatch. out[i] is identical to
// DVGreedy{}.Allocate(params, problems[i]). workers <= 0 uses GOMAXPROCS.
func AllocateBatch(params Params, problems []*SlotProblem, workers int) []Allocation {
	ks := make([]*knapsack.Problem, len(problems))
	for i, p := range problems {
		ks[i] = toKnapsack(params, p)
	}
	sols := knapsack.SolveBatch(ks, workers)
	out := make([]Allocation, len(sols))
	for i, sol := range sols {
		out[i] = fromKnapsack(sol)
	}
	return out
}

var (
	_ Allocator        = (*SolverAllocator)(nil)
	_ TracingAllocator = (*SolverAllocator)(nil)
	_ SharedAllocator  = (*SolverAllocator)(nil)
	_ Allocator        = (*WarmAllocator)(nil)
	_ TracingAllocator = (*WarmAllocator)(nil)
	_ SharedAllocator  = (*WarmAllocator)(nil)
)

// Package core implements the paper's primary contribution: the per-slot
// decomposition of the collaborative-VR QoE maximization problem
// (Section III, eqs. (4)-(9)) and the Density/Value-Greedy quality-level
// allocation algorithm (Algorithm 1) with its 1/2-approximation guarantee
// (Theorem 1).
//
// Per time slot t the edge server solves
//
//	max_{q_n(t)}  sum_n h_n(q_n(t))
//	s.t.          sum_n f^R(q_n(t)) <= B(t),   f^R(q_n(t)) <= B_n(t)
//
// where, with delta_n the success probability of the 6-DoF motion
// prediction and qbar_n(t-1) the running mean of successfully-viewed
// quality,
//
//	h_n(q) = delta_n*q - alpha*E[d_n(f^R(q))]
//	         - beta*( delta_n*(t-1)*(q - qbar)^2/t + (1-delta_n)*(t-1)*qbar^2/t ).
package core

import (
	"errors"
	"fmt"

	"repro/internal/knapsack"
	"repro/internal/obs"
)

// Params are the QoE weights of Section II and the size of the quality set.
type Params struct {
	Alpha  float64 // delay sensitivity (paper: 0.02 in simulation, 0.1 in testbed)
	Beta   float64 // variance sensitivity (paper: 0.5)
	Levels int     // L, the number of quality levels (paper: 6)
}

// DefaultSimParams are the weights of the trace-based simulation
// (Section IV).
func DefaultSimParams() Params { return Params{Alpha: 0.02, Beta: 0.5, Levels: 6} }

// DefaultSystemParams are the weights of the real-system evaluation
// (Section VI).
func DefaultSystemParams() Params { return Params{Alpha: 0.1, Beta: 0.5, Levels: 6} }

// UserInput is everything the allocator needs to know about one user in one
// slot.
type UserInput struct {
	// Rate[q-1] is f^R_{c(t)}(q): the rate required to deliver the user's
	// predicted tiles at quality level q, in the same unit as Cap and the
	// slot budget.
	Rate []float64
	// Delay[q-1] is the expected content delivery delay at quality level q
	// (e.g. the M/M/1 value r/(B_n - r) in simulation, or the server's
	// polynomial-regression prediction in the real system).
	Delay []float64
	// Delta is the estimated success probability delta_n of the user's
	// motion prediction.
	Delta float64
	// MeanQ is qbar_n(t-1), the running mean of successfully-viewed quality.
	MeanQ float64
	// Cap is B_n(t), the user's available throughput this slot.
	Cap float64
}

// SlotProblem is one slot's allocation instance for all users.
type SlotProblem struct {
	T      int     // 1-based slot index; the variance weight is (t-1)/t
	Budget float64 // B(t), the server's available throughput this slot
	Users  []UserInput
	// Values, when non-empty, is the lowered objective table the caller has
	// already computed: Values[n*Levels+q-1] must be Objective(params, T,
	// Users[n], q), as ObjectiveRow writes it. Lowering is per-user work, so
	// an engine that builds its users in parallel fills the rows there and
	// the allocators alias them instead of recomputing on the serial path.
	// Keep it one contiguous slab: the solver walks it item by item.
	Values []float64
}

// Validate reports structural errors in the problem.
func (p *SlotProblem) Validate(params Params) error {
	if p.T < 1 {
		return errors.New("core: slot index must be >= 1")
	}
	if len(p.Users) == 0 {
		return errors.New("core: no users")
	}
	for i, u := range p.Users {
		if len(u.Rate) != params.Levels {
			return fmt.Errorf("core: user %d has %d rates, want %d", i, len(u.Rate), params.Levels)
		}
		if len(u.Delay) != params.Levels {
			return fmt.Errorf("core: user %d has %d delays, want %d", i, len(u.Delay), params.Levels)
		}
		if u.Delta < 0 || u.Delta > 1 {
			return fmt.Errorf("core: user %d has delta %v outside [0,1]", i, u.Delta)
		}
	}
	if want := len(p.Users) * params.Levels; len(p.Values) != 0 && len(p.Values) != want {
		return fmt.Errorf("core: %d pre-lowered values, want none or %d", len(p.Values), want)
	}
	return nil
}

// Terms is the decomposition of h_n(q) into its three components:
// h_n(q) = Quality - Delay - Variance (each term already weighted).
type Terms struct {
	Quality  float64 // delta_n * q
	Delay    float64 // alpha * E[d_n(f^R(q))]
	Variance float64 // beta * (weighted quality-switch variance)
}

// ObjectiveTerms evaluates the components of h_n(q) of eq. (9) for one user
// at quality level q (1-based) in slot t — the per-slot objective terms the
// flight recorder exports.
func ObjectiveTerms(params Params, t int, u UserInput, q int) Terms {
	tf := float64(t)
	varWeight := (tf - 1) / tf
	dq := float64(q) - u.MeanQ
	variance := u.Delta*varWeight*dq*dq + (1-u.Delta)*varWeight*u.MeanQ*u.MeanQ
	return Terms{
		Quality:  u.Delta * float64(q),
		Delay:    params.Alpha * u.Delay[q-1],
		Variance: params.Beta * variance,
	}
}

// Objective evaluates h_n(q) of eq. (9) for one user at quality level q
// (1-based) in slot t.
func Objective(params Params, t int, u UserInput, q int) float64 {
	terms := ObjectiveTerms(params, t, u, q)
	return terms.Quality - terms.Delay - terms.Variance
}

// ObjectiveRow writes h_n(q) for q = 1..len(dst) into dst: user n's row of
// the lowered value table (see SlotProblem.Values).
func ObjectiveRow(dst []float64, params Params, t int, u UserInput) {
	for q := range dst {
		dst[q] = Objective(params, t, u, q+1)
	}
}

// valueTable returns the slot's lowered n x Levels value table: p.Values
// when the caller pre-lowered it, else computed into buf (regrown when too
// small) by the same ObjectiveRow calls.
func valueTable(params Params, p *SlotProblem, buf []float64) []float64 {
	if len(p.Values) != 0 {
		return p.Values
	}
	n, l := len(p.Users), params.Levels
	if cap(buf) < n*l {
		buf = make([]float64, n*l)
	}
	buf = buf[:n*l]
	for i := range p.Users {
		ObjectiveRow(buf[i*l:(i+1)*l], params, p.T, p.Users[i])
	}
	return buf
}

// Allocation is the outcome of one slot's quality allocation.
type Allocation struct {
	// Levels[n] is the 1-based quality level chosen for user n.
	Levels []int
	// Value is the achieved per-slot objective sum_n h_n(q_n).
	Value float64
	// Rate is the total required rate of the allocation.
	Rate float64
}

// Allocator decides quality levels for one slot. Implementations must be
// safe for sequential reuse across slots (they may keep state, e.g. LRU
// order in the Firefly baseline).
type Allocator interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Allocate solves one slot.
	Allocate(params Params, p *SlotProblem) Allocation
}

// SlotTrace is the decision trace of one slot's allocation: which greedy
// branch produced the returned solution and every quality_verification
// rejection with the constraint it violated.
type SlotTrace struct {
	// Branch is "density" or "value" for Algorithm 1 (empty for allocators
	// without a branch choice).
	Branch string
	// Upgrades counts the accepted upgrades of the returned pass.
	Upgrades int
	// Rejections lists the reverted upgrades of the returned pass.
	Rejections []obs.Rejection
	// TopK, when positive, opts in to counterfactual capture: the returned
	// pass's top-K unchosen upgrades land in Alternatives. Zero (the
	// default) records nothing and costs nothing.
	TopK int
	// Alternatives are the counterfactual decisions of the returned pass,
	// ranked by marginal score (heap-solver allocators only).
	Alternatives []obs.Alternative
}

// TracingAllocator is an Allocator that can explain its decisions. The
// greedy allocators implement it; exact solvers have nothing to trace.
type TracingAllocator interface {
	Allocator
	// AllocateTraced solves one slot and fills tr (nil tr behaves like
	// Allocate).
	AllocateTraced(params Params, p *SlotProblem, tr *SlotTrace) Allocation
}

// fillTrace converts a knapsack pass trace into a slot trace.
func fillTrace(tr *SlotTrace, branch string, pass knapsack.PassTrace) {
	tr.Branch = branch
	tr.Upgrades = pass.Upgrades
	if len(pass.Rejections) > 0 {
		tr.Rejections = make([]obs.Rejection, len(pass.Rejections))
		for i, rej := range pass.Rejections {
			tr.Rejections[i] = obs.Rejection{
				User:       rej.Item,
				Level:      rej.Level,
				Constraint: rej.Reason.String(),
			}
		}
	}
	if len(pass.Alternatives) > 0 {
		tr.Alternatives = make([]obs.Alternative, len(pass.Alternatives))
		for i, alt := range pass.Alternatives {
			tr.Alternatives[i] = obs.Alternative{
				User:   alt.Item,
				Level:  alt.Level,
				Score:  alt.Score,
				Gain:   alt.Gain,
				Reason: alt.Reason.String(),
			}
		}
	}
}

// toKnapsack lowers a slot problem into the generic nonlinear knapsack form.
func toKnapsack(params Params, p *SlotProblem) *knapsack.Problem {
	items := make([]knapsack.Item, len(p.Users))
	l := params.Levels
	values := valueTable(params, p, nil)
	for i, u := range p.Users {
		items[i] = knapsack.Item{
			Values:  values[i*l : (i+1)*l : (i+1)*l],
			Weights: u.Rate,
			Cap:     u.Cap,
		}
	}
	return &knapsack.Problem{Items: items, Budget: p.Budget}
}

func fromKnapsack(sol knapsack.Solution) Allocation {
	return Allocation{Levels: sol.Levels, Value: sol.Value, Rate: sol.Weight}
}

// DensityOnly runs only the density-greedy pass (an ablation of
// Algorithm 1).
type DensityOnly struct{}

// Name implements Allocator.
func (DensityOnly) Name() string { return "density" }

// Allocate implements Allocator.
func (DensityOnly) Allocate(params Params, p *SlotProblem) Allocation {
	return fromKnapsack(toKnapsack(params, p).DensityGreedy())
}

// AllocateTraced implements TracingAllocator.
func (DensityOnly) AllocateTraced(params Params, p *SlotProblem, tr *SlotTrace) Allocation {
	if tr == nil {
		return DensityOnly{}.Allocate(params, p)
	}
	var pass knapsack.PassTrace
	pass.TopK = tr.TopK
	sol := toKnapsack(params, p).DensityGreedyTraced(&pass)
	fillTrace(tr, knapsack.BranchDensity.String(), pass)
	return fromKnapsack(sol)
}

// ValueOnly runs only the value-greedy pass (an ablation of Algorithm 1).
type ValueOnly struct{}

// Name implements Allocator.
func (ValueOnly) Name() string { return "value" }

// Allocate implements Allocator.
func (ValueOnly) Allocate(params Params, p *SlotProblem) Allocation {
	return fromKnapsack(toKnapsack(params, p).ValueGreedy())
}

// AllocateTraced implements TracingAllocator.
func (ValueOnly) AllocateTraced(params Params, p *SlotProblem, tr *SlotTrace) Allocation {
	if tr == nil {
		return ValueOnly{}.Allocate(params, p)
	}
	var pass knapsack.PassTrace
	pass.TopK = tr.TopK
	sol := toKnapsack(params, p).ValueGreedyTraced(&pass)
	fillTrace(tr, knapsack.BranchValue.String(), pass)
	return fromKnapsack(sol)
}

// Optimal solves each slot exactly by brute force; it is the "optimal
// offline solution of problem (5)-(7)" the paper compares against for 5
// users. Cost is L^N, so it is only practical for small N.
type Optimal struct{}

// Name implements Allocator.
func (Optimal) Name() string { return "optimal" }

// Allocate implements Allocator.
func (Optimal) Allocate(params Params, p *SlotProblem) Allocation {
	return fromKnapsack(toKnapsack(params, p).BruteForce())
}

// DPOptimal solves each slot near-exactly with the pseudo-polynomial
// dynamic program — an extension beyond the paper, which could only compare
// against the exact optimum for 5 users (brute force is L^N). DPOptimal
// scales to the 30-user setting at a chosen budget resolution.
type DPOptimal struct {
	// Resolution is the budget grid step; <= 0 picks budget/2048.
	Resolution float64
}

// Name implements Allocator.
func (DPOptimal) Name() string { return "dp-optimal" }

// Allocate implements Allocator.
func (d DPOptimal) Allocate(params Params, p *SlotProblem) Allocation {
	return fromKnapsack(toKnapsack(params, p).DynamicProgram(d.Resolution))
}

// FractionalUpperBound returns V_p, an upper bound on the slot's optimal
// objective (used in analysis and tests of Theorem 1).
func FractionalUpperBound(params Params, p *SlotProblem) float64 {
	return toKnapsack(params, p).FractionalBound()
}

var (
	_ Allocator        = DensityOnly{}
	_ Allocator        = ValueOnly{}
	_ Allocator        = Optimal{}
	_ Allocator        = DPOptimal{}
	_ TracingAllocator = DensityOnly{}
	_ TracingAllocator = ValueOnly{}
)

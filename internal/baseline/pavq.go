package baseline

import (
	"repro/internal/core"
)

// pavq reproduces the Practical Adaptive Variance-aware Quality allocation
// algorithm of Joseph and de Veciana (INFOCOM 2012), modified per the
// paper's Section IV to include the delivery-delay term in its per-user
// index mu_i^P.
//
// PAVQ is price-based: each user independently maximizes its (delay-aware,
// variance-aware) utility minus a congestion price lambda times its rate,
// and the price adapts across slots by a dual subgradient step toward the
// shared budget. In stationary conditions the price converges and PAVQ
// tracks the optimum closely (as in Fig. 2); under rapidly varying capacity
// the lagging price over- or under-shoots, which is the degradation the
// paper's real-system experiments expose (Figs. 7 and 8).
type pavq struct {
	// StepSize is the dual subgradient step kappa (per unit of relative
	// budget violation). The default used by NewPAVQ is 0.05.
	StepSize float64
	lambda   float64
}

// NewPAVQ returns a PAVQ allocator with the default price step.
func NewPAVQ() *pavq { return &pavq{StepSize: 0.05} }

// Name implements core.Allocator.
func (a *pavq) Name() string { return "pavq" }

// Allocate implements core.Allocator.
func (a *pavq) Allocate(params core.Params, p *core.SlotProblem) core.Allocation {
	n := len(p.Users)
	levels := make([]int, n)
	var total float64

	// Per-user price-directed choice: argmax_q mu(q) - lambda * rate(q)
	// subject to the user's own cap.
	for i, u := range p.Users {
		best := 1
		bestScore := core.Objective(params, p.T, u, 1) - a.lambda*u.Rate[0]
		for q := 2; q <= params.Levels; q++ {
			if u.Rate[q-1] > u.Cap {
				break
			}
			score := core.Objective(params, p.T, u, q) - a.lambda*u.Rate[q-1]
			if score > bestScore {
				bestScore = score
				best = q
			}
		}
		levels[i] = best
		total += u.Rate[best-1]
	}

	// Dual price update toward the budget (projected to stay nonnegative).
	if p.Budget > 0 {
		a.lambda += a.StepSize * (total - p.Budget) / p.Budget
		if a.lambda < 0 {
			a.lambda = 0
		}
	}

	// Hard feasibility: the server cannot send more than B(t) in the slot.
	// Trim the user whose downgrade costs the least utility per unit of
	// rate reclaimed until the budget is met.
	for total > p.Budget {
		victim := -1
		bestLoss := 0.0
		for i, u := range p.Users {
			if levels[i] <= 1 {
				continue
			}
			q := levels[i]
			dRate := u.Rate[q-1] - u.Rate[q-2]
			if dRate <= 0 {
				dRate = 1e-12
			}
			loss := (core.Objective(params, p.T, u, q) - core.Objective(params, p.T, u, q-1)) / dRate
			if victim == -1 || loss < bestLoss {
				victim = i
				bestLoss = loss
			}
		}
		if victim == -1 {
			break
		}
		u := p.Users[victim]
		total -= u.Rate[levels[victim]-1] - u.Rate[levels[victim]-2]
		levels[victim]--
	}

	var value float64
	for i, u := range p.Users {
		value += core.Objective(params, p.T, u, levels[i])
	}
	return core.Allocation{Levels: levels, Value: value, Rate: total}
}

var _ core.Allocator = (*pavq)(nil)

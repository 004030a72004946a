package baseline

import "repro/internal/core"

// uniform allocates the same quality level to every user: the highest level
// whose aggregate rate fits the server budget and every user's cap. It is
// the natural "equal treatment" strawman for collaborative applications —
// fair by construction, but oblivious to per-user link quality, delay and
// variance, so it wastes budget on users whose links cannot exploit it and
// starves users who could.
type uniform struct{}

// newUniform returns a Uniform allocator.
func newUniform() *uniform { return &uniform{} }

// Name implements core.Allocator.
func (*uniform) Name() string { return "uniform" }

// Allocate implements core.Allocator.
func (*uniform) Allocate(params core.Params, p *core.SlotProblem) core.Allocation {
	best := 1
	for level := params.Levels; level >= 1; level-- {
		var total float64
		ok := true
		for _, u := range p.Users {
			rate := u.Rate[level-1]
			total += rate
			if level > 1 && rate > u.Cap {
				ok = false
				break
			}
		}
		if ok && (total <= p.Budget || level == 1) {
			best = level
			break
		}
	}

	levels := make([]int, len(p.Users))
	var value, total float64
	for i, u := range p.Users {
		levels[i] = best
		value += core.Objective(params, p.T, u, best)
		total += u.Rate[best-1]
	}
	return core.Allocation{Levels: levels, Value: value, Rate: total}
}

var _ core.Allocator = (*uniform)(nil)

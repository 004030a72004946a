// Package baseline implements the two state-of-the-art comparison
// algorithms of the paper's evaluation (Section IV):
//
//   - the Adaptive Quality Control algorithm of Firefly (Liu et al., USENIX
//     ATC 2020), which allocates rate to multiple users with a
//     Least-Recently-Used policy, and
//   - the Practical Adaptive Variance-aware Quality allocation algorithm
//     (PAVQ) of Joseph and de Veciana (INFOCOM 2012), modified as the paper
//     describes to account for delivery delay.
//
// Both implement core.Allocator so they can be swapped into the simulator
// and the real system interchangeably with Algorithm 1.
package baseline

import (
	"repro/internal/core"
)

// firefly reproduces Firefly's adaptive quality control. Each user requests
// the highest quality level sustainable under its own link estimate; when
// the aggregate rate exceeds the server budget, quality is reclaimed from
// the least-recently-upgraded users first (the LRU policy the paper cites).
// It is bandwidth-greedy: it considers neither the delay nor the variance
// term of the QoE, which is what the paper's evaluation exposes.
type firefly struct {
	// Headroom scales the per-user link estimate when picking the target
	// level; 1.0 (the default) saturates the estimated bandwidth, which is
	// what gives Firefly its characteristic high delivery delay in the
	// paper's Figs. 2c/3c.
	Headroom float64

	// lastTouched[n] is the virtual timestamp at which user n last had its
	// quality raised; the LRU victim is the user with the smallest value.
	lastTouched []int64
	clock       int64
}

// NewFirefly returns a Firefly allocator for any number of users; per-user
// LRU state is created lazily.
func NewFirefly() *firefly { return &firefly{Headroom: 1.0} }

// Name implements core.Allocator.
func (f *firefly) Name() string { return "firefly" }

// Allocate implements core.Allocator.
func (f *firefly) Allocate(params core.Params, p *core.SlotProblem) core.Allocation {
	n := len(p.Users)
	f.ensure(n)

	// Phase 1: every user requests the highest level its own link supports.
	headroom := f.Headroom
	if headroom <= 0 {
		headroom = 1.0
	}
	levels := make([]int, n)
	var total float64
	for i, u := range p.Users {
		levels[i] = 1
		for q := params.Levels; q >= 1; q-- {
			if u.Rate[q-1] <= u.Cap*headroom {
				levels[i] = q
				break
			}
		}
		total += u.Rate[levels[i]-1]
		if levels[i] > 1 {
			f.clock++
			f.lastTouched[i] = f.clock
		}
	}

	// Phase 2: while the shared budget is exceeded, downgrade the
	// least-recently-used user one level and move it to the MRU position so
	// the next downgrade hits someone else.
	for total > p.Budget {
		victim := -1
		var oldest int64
		for i := range levels {
			if levels[i] <= 1 {
				continue
			}
			if victim == -1 || f.lastTouched[i] < oldest {
				victim = i
				oldest = f.lastTouched[i]
			}
		}
		if victim == -1 {
			break // everyone at base level; budget cannot be met
		}
		total -= p.Users[victim].Rate[levels[victim]-1]
		levels[victim]--
		total += p.Users[victim].Rate[levels[victim]-1]
		f.clock++
		f.lastTouched[victim] = f.clock
	}

	var value float64
	for i, u := range p.Users {
		value += core.Objective(params, p.T, u, levels[i])
	}
	return core.Allocation{Levels: levels, Value: value, Rate: total}
}

func (f *firefly) ensure(n int) {
	for len(f.lastTouched) < n {
		f.lastTouched = append(f.lastTouched, 0)
	}
}

var _ core.Allocator = (*firefly)(nil)

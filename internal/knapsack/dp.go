package knapsack

import "math"

// DynamicProgram solves the nonlinear knapsack exactly on a discretized
// budget grid — the classic pseudo-polynomial alternative to BruteForce
// that stays tractable for many items. Weights are rounded UP to the grid,
// so every returned solution is feasible for the original budget; the cost
// is that solutions needing the rounded-away slack may be missed, making
// the result a lower bound that converges to the optimum as resolution
// shrinks.
//
// resolution is the grid step in weight units (e.g. 0.25 Mbps); values
// <= 0 default to budget/2048. Complexity is O(N * L * budget/resolution).
func (p *Problem) DynamicProgram(resolution float64) Solution {
	n := len(p.Items)
	base := p.baseSolution()
	if n == 0 {
		return base
	}
	if resolution <= 0 {
		resolution = p.Budget / 2048
	}
	if resolution <= 0 {
		return base
	}

	// Budget grid. Weights are charged relative to the base level so the
	// all-ones assignment is always representable (cell 0), matching the
	// greedy passes' convention that level 1 is always admissible.
	cells := int(math.Floor(p.Budget/resolution)) + 1
	baseWeight := base.Weight
	gridSlack := p.Budget - baseWeight
	if gridSlack < 0 {
		// Base already violates the budget; nothing can upgrade.
		return base
	}
	cells = int(math.Floor(gridSlack/resolution)) + 1

	minusInf := math.Inf(-1)
	// best[b] = max extra value using exactly <= b grid cells of extra
	// weight; choice[i][b] = level chosen for item i at cell b.
	best := make([]float64, cells)
	prev := make([]float64, cells)
	choice := make([][]int16, n)

	for i := 0; i < n; i++ {
		it := p.Items[i]
		choice[i] = make([]int16, cells)
		copy(prev, best)
		for b := 0; b < cells; b++ {
			best[b] = minusInf
		}
		for level := 1; level <= it.levels(); level++ {
			w := it.Weights[level-1]
			if level > 1 && w > it.Cap {
				break // weights non-decreasing: higher levels fail too
			}
			extraW := w - it.Weights[0]
			if extraW < 0 {
				extraW = 0
			}
			cost := int(math.Ceil(extraW/resolution - 1e-12))
			extraV := it.Values[level-1] - it.Values[0]
			for b := cost; b < cells; b++ {
				if prev[b-cost] == minusInf {
					continue
				}
				if v := prev[b-cost] + extraV; v > best[b] {
					best[b] = v
					choice[i][b] = int16(level)
				}
			}
		}
		// Monotone envelope: allow leaving grid cells unused.
		for b := 1; b < cells; b++ {
			if best[b-1] > best[b] {
				best[b] = best[b-1]
				choice[i][b] = 0 // marker: inherit from b-1
			}
		}
	}

	// Find the best terminal cell and backtrack.
	bestCell := cells - 1
	levels := make([]int, n)
	b := bestCell
	for i := n - 1; i >= 0; i-- {
		for b > 0 && choice[i][b] == 0 {
			b--
		}
		level := int(choice[i][b])
		if level == 0 {
			level = 1 // degenerate: nothing chosen, stay at base
		}
		levels[i] = level
		it := p.Items[i]
		extraW := it.Weights[level-1] - it.Weights[0]
		if extraW < 0 {
			extraW = 0
		}
		b -= int(math.Ceil(extraW/resolution - 1e-12))
		if b < 0 {
			b = 0
		}
	}
	value, weight := p.valueOf(levels)
	if weight > p.Budget+1e-9 || value < base.Value {
		return base
	}
	return Solution{Levels: levels, Value: value, Weight: weight}
}

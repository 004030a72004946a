// Package knapsack implements the nonlinear knapsack machinery behind the
// paper's per-slot quality allocation problem (eqs. (5)-(7)): a separable
// concave objective over discrete quality levels with a convex weight
// (rate) per item, one shared budget B(t), and a per-item cap B_n(t).
//
// It provides the density-greedy and value-greedy passes, their combination
// (Algorithm 1 of the paper, with the quality_verification subroutine), an
// exact brute-force solver for small instances, and the fractional upper
// bound V_p used in the proof of Theorem 1.
//
// One engine runs the greedy passes in production: the Solver (solver.go),
// an incremental max-heap of pending upgrades with reusable scratch,
// O(log N) per pick and zero allocations in steady state; DensityGreedy,
// ValueGreedy and Combined run on a pooled Solver. The original
// O(N * picks) scan is kept verbatim as the test oracle (referenceGreedy,
// exported as ReferenceCombined); both share the scoring and tie-breaking
// rules below and return bit-identical solutions and traces, which the
// golden-corpus and fuzz tests enforce. Inputs are expected to be finite
// (no NaN/Inf); the solvers do not panic on non-finite values but the
// Solver and the oracle may then disagree, since NaN breaks the candidate
// total order.
package knapsack

import "sync"

// Item is one user's quality ladder. Values[l] and Weights[l] are the
// objective value h_n(l+1) and required rate f^R(l+1) of quality level l+1;
// levels are 1-based externally. Cap is the per-item budget B_n(t).
//
// Algorithm 1 assumes Values is concave in the level (decreasing increments)
// and Weights convex increasing; the solvers work on arbitrary inputs but the
// 1/2-approximation guarantee needs those shapes.
type Item struct {
	Values  []float64
	Weights []float64
	Cap     float64
}

// levels returns the number of quality levels of the item.
func (it Item) levels() int { return len(it.Values) }

// Problem is a per-slot allocation instance.
type Problem struct {
	Items  []Item
	Budget float64 // shared budget B(t)
}

// Solution is an assignment of one level (1-based) per item.
type Solution struct {
	Levels []int
	Value  float64
	Weight float64
}

// Clone returns a deep copy of the solution whose Levels no longer alias
// any solver scratch buffer.
func (s Solution) Clone() Solution {
	out := s
	out.Levels = append([]int(nil), s.Levels...)
	return out
}

// valueOf recomputes the total value and weight of an assignment.
func (p *Problem) valueOf(levels []int) (value, weight float64) {
	for i, l := range levels {
		value += p.Items[i].Values[l-1]
		weight += p.Items[i].Weights[l-1]
	}
	return value, weight
}

// baseSolution returns the all-ones assignment the greedy passes start from
// ("Initialize: Q = {1, 1, ..., 1}" in Algorithm 1). The base level is
// always considered deliverable; constraints only gate upgrades.
func (p *Problem) baseSolution() Solution {
	levels := make([]int, len(p.Items))
	for i := range levels {
		levels[i] = 1
	}
	v, w := p.valueOf(levels)
	return Solution{Levels: levels, Value: v, Weight: w}
}

// greedyKind selects the scoring rule of a greedy pass.
type greedyKind int

const (
	byDensity greedyKind = iota + 1 // eta_n = dV/dW
	byValue                         // v_n = dV
)

// upgradeScore is the score of raising it from its current 1-based level l
// to l+1. Both the reference scan and the heap Solver rank candidates with
// this function, so the two engines see identical float64 scores.
func upgradeScore(it *Item, l int, kind greedyKind) float64 {
	dv := it.Values[l] - it.Values[l-1]
	if kind != byDensity {
		return dv
	}
	dw := it.Weights[l] - it.Weights[l-1]
	if dw <= 0 {
		// Degenerate non-increasing weight: a free (or weight-reducing)
		// upgrade; give it absolute priority when its value gain is
		// nonnegative.
		if dv >= 0 {
			return dv/1e-12 + 1
		}
		return dv / 1e-12
	}
	return dv / dw
}

// betterCandidate is the deterministic selection rule of the greedy passes:
// the candidate (score, item) replaces the incumbent (bestScore, bestItem)
// on a strictly higher score, or on an equal score with a lower item index.
// Ties are therefore always broken toward the lowest index — an explicit
// invariant both engines implement (the heap orders entries the same way in
// entryBefore), rather than an accident of scan order.
func betterCandidate(score float64, item int, bestScore float64, bestItem int) bool {
	if bestItem < 0 {
		return true
	}
	if score != bestScore {
		return score > bestScore
	}
	return item < bestItem
}

// rejectReason identifies the constraint a quality_verification check found
// violated.
type rejectReason uint8

const (
	// rejectItemCap is the per-item cap check f^R(q) > B_n(t).
	rejectItemCap rejectReason = iota + 1
	// rejectBudget is the shared-budget check sum f^R > B(t).
	rejectBudget
	// RejectUnprofitable marks a counterfactual upgrade that was never
	// attempted because its marginal score was negative when the greedy loop
	// terminated ("if eta < 0 then I = {}"). It never appears in Rejections
	// — only in the counterfactual Alternatives of a pass.
	rejectUnprofitable
)

// String names the violated constraint.
func (r rejectReason) String() string {
	switch r {
	case rejectItemCap:
		return "user-cap"
	case rejectBudget:
		return "budget"
	case rejectUnprofitable:
		return "unprofitable"
	default:
		return "unknown"
	}
}

// rejection is one reverted upgrade: quality_verification refused moving
// Item to Level because of Reason.
type rejection struct {
	Item   int
	Level  int // the attempted (refused) level, 1-based
	Reason rejectReason
}

// alternative is one unchosen upgrade surfaced by a greedy pass: raising
// Item to Level (1-based) would have added Gain objective value, but the
// pass did not take it for Reason. Score is the pass's marginal ranking
// score (dV/dW for the density pass, dV for the value pass) — the same
// number the heap ordered candidates by, so alternatives are directly
// comparable with the upgrades that did win.
type alternative struct {
	Item   int
	Level  int // the forgone (not taken) level, 1-based
	Score  float64
	Gain   float64 // dV of the forgone upgrade
	Reason rejectReason
}

// altBefore orders alternatives the way the heap ordered candidates:
// higher score first, ties to the lower item index, then the lower level.
func altBefore(a, b alternative) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Item != b.Item {
		return a.Item < b.Item
	}
	return a.Level < b.Level
}

// insertTopK inserts a into alts (kept sorted by altBefore), bounding the
// result to k entries. It shifts in place and appends at most once, so a
// caller reusing alts across solves reaches zero allocations once the
// slice's capacity has grown to k.
func insertTopK(alts []alternative, k int, a alternative) []alternative {
	if k <= 0 {
		return alts
	}
	switch {
	case len(alts) < k:
		alts = append(alts, a)
	case altBefore(a, alts[len(alts)-1]):
		alts[len(alts)-1] = a
	default:
		return alts
	}
	for i := len(alts) - 1; i > 0 && altBefore(alts[i], alts[i-1]); i-- {
		alts[i], alts[i-1] = alts[i-1], alts[i]
	}
	return alts
}

// PassTrace records one greedy pass's decision sequence: how many upgrades
// were accepted and which were reverted by quality_verification.
//
// TopK, when positive, additionally asks the heap Solver to record up to
// TopK unchosen upgrades — the counterfactual decisions of the pass: every
// quality_verification rejection plus the profitable-looking upgrades left
// pending when the loop hit a negative marginal score — ranked by Score.
// Only the heap engine fills Alternatives (the reference scan ignores
// TopK); solutions, Upgrades and Rejections remain bit-identical between
// engines either way.
type PassTrace struct {
	Upgrades     int
	Rejections   []rejection
	TopK         int
	Alternatives []alternative
}

// Branch identifies which greedy pass Combined returned.
type Branch uint8

const (
	_ Branch = iota
	BranchDensity
	BranchValue
)

// String names the branch.
func (b Branch) String() string {
	switch b {
	case BranchDensity:
		return "density"
	case BranchValue:
		return "value"
	default:
		return ""
	}
}

// CombinedTrace records both passes of Algorithm 1 and which one won.
type CombinedTrace struct {
	Density PassTrace
	Value   PassTrace
	Picked  Branch
}

// referenceGreedy runs one pass of Algorithm 1's loop with the given
// scoring rule, rescanning every active item per pick — the original,
// obviously-correct implementation the heap Solver is differentially
// tested against. tr, when non-nil, receives the pass's decision trace.
func (p *Problem) referenceGreedy(kind greedyKind, tr *PassTrace) Solution {
	sol := p.baseSolution()
	active := make([]bool, len(p.Items))
	numActive := 0
	for i, it := range p.Items {
		if it.levels() > 1 {
			active[i] = true
			numActive++
		}
	}

	for numActive > 0 {
		best := -1
		bestScore := 0.0
		for i := range p.Items {
			if !active[i] {
				continue
			}
			score := upgradeScore(&p.Items[i], sol.Levels[i], kind)
			if betterCandidate(score, i, bestScore, best) {
				best = i
				bestScore = score
			}
		}
		if best == -1 || bestScore < 0 {
			// "if eta < 0 then I = {}": no profitable upgrade remains.
			break
		}

		// Tentatively upgrade, then run quality_verification.
		it := p.Items[best]
		old := sol.Levels[best]
		sol.Levels[best] = old + 1
		sol.Value += it.Values[old] - it.Values[old-1]
		sol.Weight += it.Weights[old] - it.Weights[old-1]

		if sol.Levels[best] == it.levels() {
			active[best] = false
			numActive--
		}
		capViolated := it.Weights[sol.Levels[best]-1] > it.Cap
		if capViolated || sol.Weight > p.Budget {
			// Revert the upgrade and retire the item.
			if tr != nil {
				reason := rejectBudget
				if capViolated {
					reason = rejectItemCap
				}
				tr.Rejections = append(tr.Rejections,
					rejection{Item: best, Level: sol.Levels[best], Reason: reason})
			}
			sol.Value -= it.Values[old] - it.Values[old-1]
			sol.Weight -= it.Weights[old] - it.Weights[old-1]
			sol.Levels[best] = old
			if active[best] {
				active[best] = false
				numActive--
			}
		} else if tr != nil {
			tr.Upgrades++
		}
	}
	return sol
}

// solverPool recycles Solver scratch across the convenience methods below,
// so Problem.Combined and friends keep their allocate-fresh-Levels contract
// while paying only one small allocation per call in steady state.
var solverPool = sync.Pool{New: func() any { return new(Solver) }}

// DensityGreedy runs the density-greedy pass alone: repeatedly upgrade the
// item with the largest value-per-rate increment.
func (p *Problem) DensityGreedy() Solution { return p.DensityGreedyTraced(nil) }

// DensityGreedyTraced is DensityGreedy with a decision trace (nil tr is
// allowed and traces nothing).
func (p *Problem) DensityGreedyTraced(tr *PassTrace) Solution {
	s := solverPool.Get().(*Solver)
	sol := s.densityGreedy(p, tr).Clone()
	solverPool.Put(s)
	return sol
}

// ValueGreedy runs the value-greedy pass alone: repeatedly upgrade the item
// with the largest value increment.
func (p *Problem) ValueGreedy() Solution { return p.ValueGreedyTraced(nil) }

// ValueGreedyTraced is ValueGreedy with a decision trace (nil tr is allowed
// and traces nothing).
func (p *Problem) ValueGreedyTraced(tr *PassTrace) Solution {
	s := solverPool.Get().(*Solver)
	sol := s.valueGreedy(p, tr).Clone()
	solverPool.Put(s)
	return sol
}

// Combined is Algorithm 1 of the paper: run both greedy passes and return
// the better solution. By Theorem 1 its value is at least half the optimum
// when values are concave and weights convex.
func (p *Problem) Combined() Solution { return p.combinedTraced(nil) }

// combinedTraced is Combined with a decision trace: both passes are traced
// and Picked records which one was returned (nil tr traces nothing).
func (p *Problem) combinedTraced(tr *CombinedTrace) Solution {
	s := solverPool.Get().(*Solver)
	sol := s.CombinedTraced(p, tr).Clone()
	solverPool.Put(s)
	return sol
}

// ReferenceCombined is Combined on the original rescan engine. The heap
// Solver must return bit-identical solutions; it exists for differential
// tests and for regenerating the golden corpus.
func (p *Problem) ReferenceCombined() Solution { return p.ReferenceCombinedTraced(nil) }

// ReferenceCombinedTraced is combinedTraced on the original rescan engine.
func (p *Problem) ReferenceCombinedTraced(tr *CombinedTrace) Solution {
	var dtr, vtr *PassTrace
	if tr != nil {
		dtr, vtr = &tr.Density, &tr.Value
	}
	d := p.referenceGreedy(byDensity, dtr)
	v := p.referenceGreedy(byValue, vtr)
	if d.Value >= v.Value {
		if tr != nil {
			tr.Picked = BranchDensity
		}
		return d
	}
	if tr != nil {
		tr.Picked = BranchValue
	}
	return v
}

// BruteForce enumerates every feasible assignment and returns an optimal
// one. It is exponential in the number of items (L^N assignments) and is
// meant for the paper's 5-user "offline optimal" comparison and for tests.
// Level 1 is always admissible, mirroring the greedy passes; upgrades beyond
// level 1 must satisfy both the per-item cap and the shared budget.
func (p *Problem) BruteForce() Solution {
	n := len(p.Items)
	cur := make([]int, n)
	best := p.baseSolution()

	// suffixMin[i] is the minimum total weight items i..n-1 can contribute
	// (their base levels); used to prune infeasible branches early.
	suffixMin := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		suffixMin[i] = suffixMin[i+1] + p.Items[i].Weights[0]
	}

	var rec func(i int, value, weight float64)
	rec = func(i int, value, weight float64) {
		if i == n {
			if value > best.Value {
				best.Value = value
				best.Weight = weight
				copy(best.Levels, cur)
			}
			return
		}
		it := p.Items[i]
		for l := 1; l <= it.levels(); l++ {
			w := it.Weights[l-1]
			if l > 1 && w > it.Cap {
				break // weights are non-decreasing; higher levels fail too
			}
			if weight+w+suffixMin[i+1] > p.Budget {
				// No completion of this branch can satisfy the shared
				// budget. (The all-base assignment is still admitted via the
				// initial best.)
				continue
			}
			cur[i] = l
			rec(i+1, value+it.Values[l-1], weight+w)
		}
		cur[i] = 1
	}
	rec(0, 0, 0)
	return best
}

// FractionalBound computes V_p of the proof of Theorem 1: the value achieved
// by the density-greedy pass when the final, budget-violating upgrade may be
// taken fractionally. It upper-bounds the discrete optimum for concave
// values and convex weights. Negative-density upgrades are never taken.
func (p *Problem) FractionalBound() float64 {
	sol := p.baseSolution()
	levels := sol.Levels
	value := sol.Value
	weight := sol.Weight

	type upgrade struct {
		item    int
		dv, dw  float64
		density float64
	}
	// Because increments are concave/convex per item, the per-item upgrade
	// sequence has non-increasing density; a global greedy by density is a
	// valid merge of these sequences.
	for {
		best := upgrade{item: -1}
		for i, it := range p.Items {
			l := levels[i]
			if l >= it.levels() {
				continue
			}
			if it.Weights[l] > it.Cap {
				continue
			}
			dv := it.Values[l] - it.Values[l-1]
			dw := it.Weights[l] - it.Weights[l-1]
			var density float64
			if dw <= 0 {
				if dv < 0 {
					continue
				}
				density = dv/1e-12 + 1
			} else {
				density = dv / dw
			}
			if best.item == -1 || density > best.density {
				best = upgrade{item: i, dv: dv, dw: dw, density: density}
			}
		}
		if best.item == -1 || best.density < 0 {
			return value
		}
		if weight+best.dw > p.Budget {
			// Take the fractional part of this upgrade and stop.
			room := p.Budget - weight
			if room > 0 && best.dw > 0 {
				value += best.dv * (room / best.dw)
			}
			return value
		}
		levels[best.item]++
		value += best.dv
		weight += best.dw
	}
}

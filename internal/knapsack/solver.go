package knapsack

// This file implements the fast path of Algorithm 1: an incremental,
// heap-based rewrite of the greedy passes. The reference scan in
// knapsack.go recomputes all N upgrade scores on every pick, i.e.
// O(N * picks) score evaluations per pass; the Solver keeps a max-heap of
// one pending upgrade per item, so each pick costs O(log N) and a full
// pass is O(N log N + picks * log N).
//
// The Solver is decision-for-decision identical to the reference scan:
// both rank candidates with upgradeScore and break ties with the rule in
// betterCandidate (equal score -> lower item index), both accept or
// reject an upgrade with the same quality_verification arithmetic in the
// same order, so values and weights accumulate through the identical
// sequence of float64 operations and the returned solutions (and traces)
// are bit-identical. The golden corpus and fuzz tests enforce this.

// heapEntry is one pending upgrade: the score of raising item from its
// current level to the next. An item has at most one live entry; entries
// are consumed on pop and re-pushed only after an accepted upgrade, so the
// heap never holds stale scores.
type heapEntry struct {
	score float64
	item  int32
}

// entryBefore orders the max-heap: higher score first, ties to the lower
// item index — the same total order betterCandidate gives the reference
// scan.
func entryBefore(a, b heapEntry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.item < b.item
}

func heapPush(h []heapEntry, e heapEntry) []heapEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryBefore(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func heapPop(h []heapEntry) (heapEntry, []heapEntry) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	siftDown(h, 0)
	return top, h
}

// siftDown restores the heap property below index i.
func siftDown(h []heapEntry, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		c := l
		if r := l + 1; r < len(h) && entryBefore(h[r], h[l]) {
			c = r
		}
		if !entryBefore(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// heapify builds a valid max-heap in place (Floyd's O(n) algorithm). Because
// entryBefore is a strict total order over distinct items, the pop sequence
// of any valid heap over the same entry set is identical — so a heap built
// here pops bit-identically to one grown by successive heapPush calls, and
// to the reference scan's pick order.
func heapify(h []heapEntry) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// Solver runs the greedy passes of Algorithm 1 with reusable scratch
// buffers: once its buffers have grown to the problem size, a solve
// performs zero heap allocations (the steady-state regime of a per-slot
// allocator deciding 60 slots per second).
//
// The Levels slice of a returned Solution aliases solver-owned scratch and
// is only valid until the next call on the same Solver; use
// Solution.Clone to detach it. A Solver is not safe for concurrent use;
// use one per goroutine.
//
// The zero value is ready to use.
type Solver struct {
	heap []heapEntry
	bufD []int // density-pass levels (also Combined's density branch)
	bufV []int // value-pass levels (also Combined's value branch)
}

// run executes one greedy pass over p, storing levels in *buf (grown as
// needed and written back). It mirrors Problem.referenceGreedy exactly;
// see the file comment for the equivalence argument.
func (s *Solver) run(p *Problem, kind greedyKind, buf *[]int, tr *PassTrace) Solution {
	n := len(p.Items)
	capture := tr != nil && tr.TopK > 0
	if capture {
		tr.Alternatives = tr.Alternatives[:0]
	}
	levels := (*buf)[:0]
	var value, weight float64
	for i := 0; i < n; i++ {
		levels = append(levels, 1)
		value += p.Items[i].Values[0]
		weight += p.Items[i].Weights[0]
	}
	*buf = levels

	h := s.heap[:0]
	for i := 0; i < n; i++ {
		it := &p.Items[i]
		if it.Levels() > 1 {
			h = append(h, heapEntry{score: upgradeScore(it, 1, kind), item: int32(i)})
		}
	}
	heapify(h)

	for len(h) > 0 {
		var e heapEntry
		e, h = heapPop(h)
		if e.score < 0 {
			// "if eta < 0 then I = {}": the best remaining upgrade is
			// unprofitable, so every remaining one is too. For the
			// counterfactual record, the popped entry and everything still
			// pending are the upgrades the pass walked away from.
			if capture {
				old := levels[int(e.item)]
				it := &p.Items[int(e.item)]
				tr.Alternatives = insertTopK(tr.Alternatives, tr.TopK, Alternative{
					Item:   int(e.item),
					Level:  old + 1,
					Score:  e.score,
					Gain:   it.Values[old] - it.Values[old-1],
					Reason: RejectUnprofitable,
				})
				for _, f := range h {
					i := int(f.item)
					old := levels[i]
					it := &p.Items[i]
					tr.Alternatives = insertTopK(tr.Alternatives, tr.TopK, Alternative{
						Item:   i,
						Level:  old + 1,
						Score:  f.score,
						Gain:   it.Values[old] - it.Values[old-1],
						Reason: RejectUnprofitable,
					})
				}
			}
			break
		}
		i := int(e.item)
		it := &p.Items[i]
		old := levels[i]

		// Tentatively upgrade, then run quality_verification.
		dv := it.Values[old] - it.Values[old-1]
		dw := it.Weights[old] - it.Weights[old-1]
		levels[i] = old + 1
		value += dv
		weight += dw

		capViolated := it.Weights[old] > it.Cap
		if capViolated || weight > p.Budget {
			// Revert the upgrade and retire the item (no re-push).
			if tr != nil {
				reason := RejectBudget
				if capViolated {
					reason = RejectItemCap
				}
				tr.Rejections = append(tr.Rejections,
					Rejection{Item: i, Level: old + 1, Reason: reason})
				if capture {
					tr.Alternatives = insertTopK(tr.Alternatives, tr.TopK, Alternative{
						Item:   i,
						Level:  old + 1,
						Score:  e.score,
						Gain:   dv,
						Reason: reason,
					})
				}
			}
			levels[i] = old
			value -= dv
			weight -= dw
			continue
		}
		if tr != nil {
			tr.Upgrades++
		}
		if old+1 < it.Levels() {
			h = heapPush(h, heapEntry{score: upgradeScore(it, old+1, kind), item: e.item})
		}
	}
	s.heap = h
	return Solution{Levels: levels, Value: value, Weight: weight}
}

// DensityGreedy runs the density-greedy pass on solver scratch.
func (s *Solver) DensityGreedy(p *Problem) Solution { return s.run(p, byDensity, &s.bufD, nil) }

// DensityGreedyTraced is DensityGreedy with a decision trace (nil tr
// traces nothing).
func (s *Solver) DensityGreedyTraced(p *Problem, tr *PassTrace) Solution {
	return s.run(p, byDensity, &s.bufD, tr)
}

// ValueGreedy runs the value-greedy pass on solver scratch.
func (s *Solver) ValueGreedy(p *Problem) Solution { return s.run(p, byValue, &s.bufV, nil) }

// ValueGreedyTraced is ValueGreedy with a decision trace (nil tr traces
// nothing).
func (s *Solver) ValueGreedyTraced(p *Problem, tr *PassTrace) Solution {
	return s.run(p, byValue, &s.bufV, tr)
}

// Combined is Algorithm 1 on solver scratch: the better of the density and
// value passes.
func (s *Solver) Combined(p *Problem) Solution { return s.CombinedTraced(p, nil) }

// CombinedTraced is Combined with a decision trace: both passes are traced
// and Picked records which one was returned (nil tr traces nothing).
func (s *Solver) CombinedTraced(p *Problem, tr *CombinedTrace) Solution {
	var dtr, vtr *PassTrace
	if tr != nil {
		dtr, vtr = &tr.Density, &tr.Value
	}
	d := s.run(p, byDensity, &s.bufD, dtr)
	v := s.run(p, byValue, &s.bufV, vtr)
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

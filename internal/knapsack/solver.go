package knapsack

import "math"

// This file implements the fast path of Algorithm 1: an incremental rewrite
// of the greedy passes. The reference scan in knapsack.go recomputes all N
// upgrade scores on every pick, i.e. O(N * picks) score evaluations per
// pass; the Solver keeps one pending upgrade per item and always takes the
// best of them.
//
// The pending upgrades live in two places. The N first-upgrade entries are
// all known before the first pick, so they are sorted once (sortSeed) and
// read front to back; only an entry re-pushed after an accepted upgrade goes
// into a binary max-heap. A pick takes whichever of the sorted list's front
// and the heap's top is entryBefore the other. A pass reads the whole seed
// (a budget rejection retires the item and the loop goes on) while well
// under one upgrade per item is accepted under a binding budget, so the
// heap stays small and the seed costs O(N) instead of N full-depth
// sift-downs.
//
// entryBefore is a strict total order over live entries (one per item), so
// "the best pending entry" names one entry whatever structure holds it: the
// pick sequence is the one a single heap over all entries would pop, and
// the one the reference scan finds by rescanning.
//
// The Solver is therefore decision-for-decision identical to the reference
// scan: both rank candidates with upgradeScore and break ties with the rule
// in betterCandidate (equal score -> lower item index), both accept or
// reject an upgrade with the same quality_verification arithmetic in the
// same order, so values and weights accumulate through the identical
// sequence of float64 operations and the returned solutions (and traces)
// are bit-identical. The golden corpus and fuzz tests enforce this.

// heapEntry is one pending upgrade: the score of raising item from its
// current level to the next. An item has at most one live entry; entries
// are consumed when picked and re-pushed only after an accepted upgrade, so
// neither the seed nor the heap ever holds a stale score.
type heapEntry struct {
	score float64
	item  int32
}

// entryBefore orders pending upgrades: higher score first, ties to the lower
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

// seedKey maps a score to a uint64 whose ascending unsigned order is
// entryBefore's score order (descending score): IEEE-754 bits with the
// magnitude of non-negative scores inverted, so +Inf < ... < +0 < -denormal
// < ... < -Inf. -0 takes +0's key because entryBefore ties them.
func seedKey(score float64) uint64 {
	b := math.Float64bits(score)
	if b == 1<<63 {
		b = 0
	}
	return b ^ (^uint64(int64(b)>>63) >> 1)
}

// seedInsertionMax is the largest seed ordered by insertion sort; above
// it the radix sort's fixed cost (zeroing 8 KB of histograms, a 256-entry
// prefix sum per digit) is repaid. Measured, not derived: see EXPERIMENTS.md
// "Serial solve: order the seed once".
const seedInsertionMax = 48

// sortSeed returns the first-upgrade entries in a, which the caller built in
// ascending item order, in entryBefore order: in place for a small seed, in
// solver scratch otherwise. entryBefore is a strict total order over entries
// of distinct items, so there is one such arrangement and it is the sequence
// a heap over the same entries would pop. Both kernels are stable, which is
// how equal scores keep ascending item index.
func (s *Solver) sortSeed(a []heapEntry) []heapEntry {
	if len(a) > seedInsertionMax {
		return s.radixSortSeed(a)
	}
	for i := 1; i < len(a); i++ {
		e := a[i]
		j := i
		for ; j > 0 && entryBefore(e, a[j-1]); j-- {
			a[j] = a[j-1]
		}
		a[j] = e
	}
	return a
}

// radixSortSeed is an LSD byte radix sort on seedKey. What moves through the
// passes is a 4-byte position into a, not the 16-byte entry: the keys stay
// put and the entries are gathered once at the end. It is its own function
// so that the histograms are on the stack of large solves only.
func (s *Solver) radixSortSeed(a []heapEntry) []heapEntry {
	n := len(a)
	if len(s.keys) < n {
		s.keys = make([]uint64, cap(a))
		s.order = make([]uint32, 2*cap(a))
		s.sorted = make([]heapEntry, cap(a))
	}
	keys := s.keys[:n]
	from, to := s.order[:n], s.order[n:2*n]
	var hist [8][256]uint32
	for i := range a {
		k := seedKey(a[i].score)
		keys[i] = k
		from[i] = uint32(i)
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	for d := range hist {
		h := &hist[d]
		shift := uint(8 * d)
		if int(h[byte(keys[0]>>shift)]) == n {
			// Every key agrees on this digit, so the pass would move
			// nothing. Scores of one pass share a sign and most exponent
			// bits, which drops the top byte or two.
			continue
		}
		var sum uint32
		for v, c := range h {
			h[v], sum = sum, sum+c
		}
		for _, pos := range from {
			v := byte(keys[pos] >> shift)
			to[h[v]] = pos
			h[v]++
		}
		from, to = to, from
	}
	sorted := s.sorted[:n]
	for i, pos := range from {
		sorted[i] = a[pos]
	}
	return sorted
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
	seed   []heapEntry // first-upgrade entries in item order
	sorted []heapEntry // the radix sort's output
	keys   []uint64    // seedKey per seed entry
	order  []uint32    // two ping-pong position buffers
	heap   []heapEntry // entries re-pushed after an accepted upgrade
	bufD   []int       // density-pass levels (also Combined's density branch)
	bufV   []int       // value-pass levels (also Combined's value branch)
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

	seed := s.seed[:0]
	for i := 0; i < n; i++ {
		it := &p.Items[i]
		if it.levels() > 1 {
			seed = append(seed, heapEntry{score: upgradeScore(it, 1, kind), item: int32(i)})
		}
	}
	s.seed = seed
	seed = s.sortSeed(seed)

	// Every live entry is either unread in seed or in h; the next pop is
	// whichever front is entryBefore the other.
	h := s.heap[:0]
	for len(seed) > 0 || len(h) > 0 {
		var e heapEntry
		if len(h) > 0 && (len(seed) == 0 || entryBefore(h[0], seed[0])) {
			e, h = heapPop(h)
		} else {
			e, seed = seed[0], seed[1:]
		}
		if e.score < 0 {
			// "if eta < 0 then I = {}": the best remaining upgrade is
			// unprofitable, so every remaining one is too. For the
			// counterfactual record, the popped entry and everything still
			// pending are the upgrades the pass walked away from.
			if capture {
				old := levels[int(e.item)]
				it := &p.Items[int(e.item)]
				tr.Alternatives = insertTopK(tr.Alternatives, tr.TopK, alternative{
					Item:   int(e.item),
					Level:  old + 1,
					Score:  e.score,
					Gain:   it.Values[old] - it.Values[old-1],
					Reason: rejectUnprofitable,
				})
				for _, pending := range [2][]heapEntry{seed, h} {
					for _, f := range pending {
						i := int(f.item)
						old := levels[i]
						it := &p.Items[i]
						tr.Alternatives = insertTopK(tr.Alternatives, tr.TopK, alternative{
							Item:   i,
							Level:  old + 1,
							Score:  f.score,
							Gain:   it.Values[old] - it.Values[old-1],
							Reason: rejectUnprofitable,
						})
					}
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
				reason := rejectBudget
				if capViolated {
					reason = rejectItemCap
				}
				tr.Rejections = append(tr.Rejections,
					rejection{Item: i, Level: old + 1, Reason: reason})
				if capture {
					tr.Alternatives = insertTopK(tr.Alternatives, tr.TopK, alternative{
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
		if old+1 < it.levels() {
			h = heapPush(h, heapEntry{score: upgradeScore(it, old+1, kind), item: e.item})
		}
	}
	s.heap = h
	return Solution{Levels: levels, Value: value, Weight: weight}
}

// densityGreedy runs the density-greedy pass on solver scratch with a
// decision trace (nil tr traces nothing).
func (s *Solver) densityGreedy(p *Problem, tr *PassTrace) Solution {
	return s.run(p, byDensity, &s.bufD, tr)
}

// valueGreedy runs the value-greedy pass on solver scratch with a
// decision trace (nil tr traces nothing).
func (s *Solver) valueGreedy(p *Problem, tr *PassTrace) Solution {
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

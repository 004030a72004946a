package knapsack

// Tests for the sorted seed: Solver.run orders the first-upgrade entries
// once (sortSeed) and keeps its heap for re-pushed entries only. The oracle
// for the order is a heap drain over the same entries — what run did before
// — and for whole solves the rescan Reference* engine.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// heapDrain is the all-heap engine's pop sequence over entries.
func heapDrain(entries []heapEntry) []heapEntry {
	var h []heapEntry
	for _, e := range entries {
		h = heapPush(h, e)
	}
	out := make([]heapEntry, 0, len(entries))
	for len(h) > 0 {
		var e heapEntry
		e, h = heapPop(h)
		out = append(out, e)
	}
	return out
}

// seedEntries wraps scores as run builds them: ascending item index.
func seedEntries(scores []float64) []heapEntry {
	entries := make([]heapEntry, len(scores))
	for i, sc := range scores {
		entries[i] = heapEntry{score: sc, item: int32(i)}
	}
	return entries
}

// checkSeedOrder asserts that sortSeed returns the heap drain's sequence,
// score bits and item alike.
func checkSeedOrder(t *testing.T, s *Solver, scores []float64) {
	t.Helper()
	want := heapDrain(seedEntries(scores))
	s.seed = append(s.seed[:0], seedEntries(scores)...)
	got := s.sortSeed(s.seed)
	if len(got) != len(want) {
		t.Fatalf("n=%d: sorted %d entries", len(want), len(got))
	}
	for i := range want {
		if got[i].item != want[i].item ||
			math.Float64bits(got[i].score) != math.Float64bits(want[i].score) {
			t.Fatalf("n=%d: position %d is item %d (score %v), heap drain pops item %d (score %v)",
				len(want), i, got[i].item, got[i].score, want[i].item, want[i].score)
		}
	}
}

// seedScoreFamilies are the score distributions of the pop-order
// differential; each draws one score.
var seedScoreFamilies = []struct {
	name string
	draw func(rng *rand.Rand) float64
}{
	{"random", func(rng *rand.Rand) float64 { return rng.NormFloat64() * 100 }},
	{"wide", func(rng *rand.Rand) float64 {
		return math.Ldexp(rng.Float64()-0.5, rng.Intn(600)-300)
	}},
	{"heavy-ties", func(rng *rand.Rand) float64 { return float64(rng.Intn(5)) / 4 }},
	{"all-equal", func(*rand.Rand) float64 { return 1.25 }},
	{"negative", func(rng *rand.Rand) float64 { return -rng.ExpFloat64() }},
	{"signed-zeros", func(rng *rand.Rand) float64 {
		return []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
	}},
	{"infinities", func(rng *rand.Rand) float64 {
		return []float64{math.Inf(1), math.Inf(-1), 0, math.MaxFloat64, -math.MaxFloat64,
			rng.NormFloat64()}[rng.Intn(6)]
	}},
	{"denormals", func(rng *rand.Rand) float64 {
		return math.Copysign(math.Float64frombits(uint64(rng.Intn(1<<20))), rng.Float64()-0.5)
	}},
	{"last-bit", func(rng *rand.Rand) float64 {
		return math.Float64frombits(math.Float64bits(1.5) + uint64(rng.Intn(4)))
	}},
	{"ladder-density", func(rng *rand.Rand) float64 {
		return (1 + rng.Float64()*2) / (5 * (0.6 + rng.Float64()))
	}},
}

// TestSeedOrderMatchesHeapDrain is the pop-order differential: at every
// size around the insertion/radix cutoff and at the two production sizes,
// on every score family, the sorted seed is the heap drain.
func TestSeedOrderMatchesHeapDrain(t *testing.T) {
	sizes := []int{0, 1, 2, seedInsertionMax - 1, seedInsertionMax, seedInsertionMax + 1, 215, 4000}
	var s Solver
	for _, fam := range seedScoreFamilies {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2024))
			for _, n := range sizes {
				for trial := 0; trial < 3; trial++ {
					scores := make([]float64, n)
					for i := range scores {
						scores[i] = fam.draw(rng)
					}
					checkSeedOrder(t, &s, scores)
				}
			}
		})
	}
}

// TestSeedKeyOrder pins the key's two contracts directly: it is monotone
// in entryBefore's score order over the whole float64 range, and the two
// zeros share a key.
func TestSeedKeyOrder(t *testing.T) {
	ladder := []float64{math.Inf(1), math.MaxFloat64, 2, math.Nextafter(1, 2), 1,
		math.SmallestNonzeroFloat64, 0, -math.SmallestNonzeroFloat64, -1,
		math.Nextafter(-1, -2), -math.MaxFloat64, math.Inf(-1)}
	for i := 1; i < len(ladder); i++ {
		if !(seedKey(ladder[i-1]) < seedKey(ladder[i])) {
			t.Errorf("seedKey(%v) = %#x not below seedKey(%v) = %#x",
				ladder[i-1], seedKey(ladder[i-1]), ladder[i], seedKey(ladder[i]))
		}
	}
	if seedKey(0) != seedKey(math.Copysign(0, -1)) {
		t.Errorf("seedKey(+0) = %#x, seedKey(-0) = %#x; entryBefore ties them",
			seedKey(0), seedKey(math.Copysign(0, -1)))
	}
}

// wantAlternatives derives the complete counterfactual record of one pass
// from the rescan engine's result, which never looks at TopK: every
// rejection, plus — when the pass stopped on a negative score rather than
// running out — the pending upgrade of every item neither rejected nor at
// its top level. That second part is the walked-away set, which the Solver
// has to collect from its unread seed and its heap together.
func wantAlternatives(p *Problem, kind greedyKind, sol Solution, tr PassTrace, k int) []alternative {
	var all []alternative
	retired := make(map[int]bool)
	for _, r := range tr.Rejections {
		it := &p.Items[r.Item]
		retired[r.Item] = true
		all = append(all, alternative{
			Item: r.Item, Level: r.Level, Score: upgradeScore(it, r.Level-1, kind),
			Gain: it.Values[r.Level-1] - it.Values[r.Level-2], Reason: r.Reason,
		})
	}
	for i := range p.Items {
		it := &p.Items[i]
		if l := sol.Levels[i]; !retired[i] && l < it.levels() {
			all = append(all, alternative{
				Item: i, Level: l + 1, Score: upgradeScore(it, l, kind),
				Gain: it.Values[l] - it.Values[l-1], Reason: rejectUnprofitable,
			})
		}
	}
	sort.Slice(all, func(a, b int) bool { return altBefore(all[a], all[b]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// negativeBreakProblem is an instance whose passes stop on a negative score
// with entries left in both structures: items 0..n/2 have a first upgrade
// worth taking and a second one that loses value (re-pushed, so pending in
// the heap at the break), the rest only a losing first upgrade (still unread
// in the seed). The budget admits everything profitable.
func negativeBreakProblem(rng *rand.Rand, n int) *Problem {
	items := make([]Item, n)
	for i := range items {
		loss := -(1 + float64(rng.Intn(8))) / 4 // ties among the walked-away
		if i <= n/2 {
			gain := 1 + float64(rng.Intn(8))/4
			items[i] = Item{Values: []float64{0, gain, gain + loss}, Weights: []float64{0, 1, 2}, Cap: 100}
		} else {
			items[i] = Item{Values: []float64{0, loss}, Weights: []float64{0, 1}, Cap: 100}
		}
	}
	return &Problem{Items: items, Budget: float64(2 * n)}
}

// checkSolveAgainstReference solves p on s with top-k capture on and
// compares solution, pass traces, branch and both passes' alternatives with
// what the rescan engine gives.
func checkSolveAgainstReference(t *testing.T, s *Solver, p *Problem, k int, who string) {
	t.Helper()
	var refTr, gotTr CombinedTrace
	gotTr.Density.TopK, gotTr.Value.TopK = k, k
	ref := p.ReferenceCombinedTraced(&refTr)
	got := s.CombinedTraced(p, &gotTr)
	equalSolutions(t, ref, got, who)
	equalPassTraces(t, refTr.Density, gotTr.Density, who+" density")
	equalPassTraces(t, refTr.Value, gotTr.Value, who+" value")
	if refTr.Picked != gotTr.Picked {
		t.Fatalf("%s: picked %v != reference %v", who, gotTr.Picked, refTr.Picked)
	}
	checkAlternatives(t, who+" density", gotTr.Density.Alternatives,
		wantAlternatives(p, byDensity, p.referenceGreedy(byDensity, nil), refTr.Density, k))
	checkAlternatives(t, who+" value", gotTr.Value.Alternatives,
		wantAlternatives(p, byValue, p.referenceGreedy(byValue, nil), refTr.Value, k))
}

// TestSeedSolveMatchesReferenceAtNegativeBreak is the full-solve
// differential on both sides of the sort cutoff, capture on with K larger
// than the whole record so a wrong walked-away set cannot hide behind the
// truncation; a small K checks the bounded list too.
func TestSeedSolveMatchesReferenceAtNegativeBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var s Solver
	for _, n := range []int{8, seedInsertionMax, seedInsertionMax + 2, 215, 600} {
		for _, k := range []int{3, 2 * n} {
			p := negativeBreakProblem(rng, n)
			who := fmt.Sprintf("n=%d k=%d", n, k)
			checkSolveAgainstReference(t, &s, p, k, who)
			// The instance is only a test of the walked-away set if the
			// pass walks away from one upgrade per item.
			var tr PassTrace
			if walked := wantAlternatives(p, byDensity, p.referenceGreedy(byDensity, &tr), tr, 2*n); len(walked) != n {
				t.Fatalf("%s: the instance walks away from %d upgrades, want %d", who, len(walked), n)
			}
		}
	}
}

// TestSeedSolveMatchesReferenceLarge runs the binding-budget shape of the
// benchmark at sizes the radix kernel serves, where TestSolverMatchesReference's
// shape families stay below the cutoff.
func TestSeedSolveMatchesReferenceLarge(t *testing.T) {
	var s Solver
	for _, n := range []int{seedInsertionMax + 1, 215, 500} {
		rng := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 2; trial++ {
			p := benchLadderProblem(rng, n)
			if trial%2 == 1 {
				p.Budget /= 2
			}
			checkSolveAgainstReference(t, &s, p, n, fmt.Sprintf("n=%d trial=%d", n, trial))
		}
	}
}

// TestSeedScratchGrowsOnce alternates the live server's size with the dense
// simulation's on one Solver: after one solve of each, neither kernel
// allocates again.
func TestSeedScratchGrowsOnce(t *testing.T) {
	small := benchLadderProblem(rand.New(rand.NewSource(16)), 16)
	large := benchLadderProblem(rand.New(rand.NewSource(4000)), 4000)
	var s Solver
	s.Combined(small)
	s.Combined(large)
	if allocs := testing.AllocsPerRun(10, func() {
		s.Combined(small)
		s.Combined(large)
	}); allocs != 0 {
		t.Errorf("alternating n=16 / n=4000 solves allocate %v times per pair, want 0", allocs)
	}
}

// TestSeedNaNScoreTerminates holds the package contract for non-finite
// input on the new path: a NaN score (Inf - Inf here) breaks the candidate
// order, so equality with the oracle is not promised, but every pass
// returns, in range, on both kernels.
func TestSeedNaNScoreTerminates(t *testing.T) {
	for _, n := range []int{4, seedInsertionMax + 8, 300} {
		rng := rand.New(rand.NewSource(int64(n)))
		p := benchLadderProblem(rng, n)
		for i := 0; i < n; i += 3 {
			p.Items[i].Values[0] = math.Inf(1)
			p.Items[i].Values[1] = math.Inf(1)
		}
		var s Solver
		var tr CombinedTrace
		tr.Density.TopK, tr.Value.TopK = 3, 3
		sol := s.CombinedTraced(p, &tr)
		for i, l := range sol.Levels {
			if l < 1 || l > p.Items[i].levels() {
				t.Fatalf("n=%d: item %d at out-of-range level %d", n, i, l)
			}
		}
	}
}

// decodeSeedScores turns fuzz bytes into scores, three bytes each: a kind
// and sixteen payload bits. The kinds reach what the byte radix has to get
// right — a coarse grid (exact ties), the sign/exponent bytes alone (±0,
// ±Inf, the extremes; NaN patterns read as 0, which the package contract
// excludes), neighbours of 1.5 that differ only in the low mantissa bytes,
// and signed denormals.
func decodeSeedScores(data []byte) []float64 {
	scores := make([]float64, 0, len(data)/3)
	for ; len(data) >= 3; data = data[3:] {
		u := uint64(data[1])<<8 | uint64(data[2])
		var sc float64
		switch data[0] % 4 {
		case 0:
			sc = float64(int16(u)) / 64
		case 1:
			sc = math.Float64frombits(u << 48)
		case 2:
			sc = math.Float64frombits(math.Float64bits(1.5) + u)
		case 3:
			sc = math.Float64frombits(uint64(data[0]&0x80)<<56 | u)
		}
		if sc != sc {
			sc = 0
		}
		scores = append(scores, sc)
	}
	return scores
}

// FuzzSeedOrder asserts the pop-order differential on arbitrary score
// lists. Seed corpus under testdata/fuzz/FuzzSeedOrder; the generated seeds
// here are long enough to reach the radix kernel.
func FuzzSeedOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0x80, 0, 1, 0, 0, 0, 0, 0}) // -0, +0, 0/64
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{5, seedInsertionMax, seedInsertionMax + 1, 215} {
		raw := make([]byte, 3*n)
		rng.Read(raw)
		f.Add(raw)
	}
	var s Solver
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSeedOrder(t, &s, decodeSeedScores(data))
	})
}

// BenchmarkSeedSort times ordering one pass's first-upgrade entries at the
// live server's size, a fleet shard's and the dense simulation's, beside
// the heap drain it replaced (Floyd build + n pops, in place).
func BenchmarkSeedSort(b *testing.B) {
	for _, n := range []int{16, 215, 4000} {
		p := benchLadderProblem(rand.New(rand.NewSource(int64(n))), n)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = upgradeScore(&p.Items[i], 1, byDensity)
		}
		entries := seedEntries(scores)
		b.Run(fmt.Sprintf("sorted/N=%d", n), func(b *testing.B) {
			var s Solver
			for i := 0; i < b.N; i++ {
				s.seed = append(s.seed[:0], entries...)
				s.sortSeed(s.seed)
			}
		})
		b.Run(fmt.Sprintf("heap-drain/N=%d", n), func(b *testing.B) {
			var h []heapEntry
			for i := 0; i < b.N; i++ {
				h = append(h[:0], entries...)
				for j := len(h)/2 - 1; j >= 0; j-- {
					siftDown(h, j)
				}
				for len(h) > 0 {
					_, h = heapPop(h)
				}
			}
		})
	}
}

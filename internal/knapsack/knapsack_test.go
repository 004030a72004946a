package knapsack

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// paperCase1 encodes the first adversarial example of Section III:
// h_1(1)=1 with rate 0.5, h_2(2)=4 with rate 2.5, budget 2.5.
// Density-greedy picks the small dense item and ends with value 1, while
// value-greedy finds the optimum 4.
func paperCase1() *Problem {
	return &Problem{
		Budget: 2.5,
		Items: []Item{
			{Values: []float64{0, 1}, Weights: []float64{0, 0.5}, Cap: 100},
			{Values: []float64{0, 4}, Weights: []float64{0, 2.5}, Cap: 100},
		},
	}
}

// paperCase2 encodes the second adversarial example: four items worth 2 at
// rate 0.5 each, one item worth 3 at rate 2, budget 2. Value-greedy takes
// the big item (value 3) while density-greedy reaches the optimum 8.
func paperCase2() *Problem {
	items := make([]Item, 0, 5)
	for i := 0; i < 4; i++ {
		items = append(items, Item{
			Values:  []float64{0, 2},
			Weights: []float64{0, 0.5},
			Cap:     100,
		})
	}
	items = append(items, Item{
		Values:  []float64{0, 3},
		Weights: []float64{0, 2},
		Cap:     100,
	})
	return &Problem{Budget: 2, Items: items}
}

func TestPaperAdversarialCase1(t *testing.T) {
	p := paperCase1()
	d := p.DensityGreedy()
	v := p.ValueGreedy()
	c := p.Combined()
	opt := p.BruteForce()

	if d.Value != 1 {
		t.Errorf("density-greedy value = %v, want 1 (paper's failure case)", d.Value)
	}
	if v.Value != 4 {
		t.Errorf("value-greedy value = %v, want 4", v.Value)
	}
	if opt.Value != 4 {
		t.Fatalf("optimum = %v, want 4", opt.Value)
	}
	if c.Value != opt.Value {
		t.Errorf("combined = %v, want optimal %v", c.Value, opt.Value)
	}
}

func TestPaperAdversarialCase2(t *testing.T) {
	p := paperCase2()
	d := p.DensityGreedy()
	v := p.ValueGreedy()
	c := p.Combined()
	opt := p.BruteForce()

	if v.Value != 3 {
		t.Errorf("value-greedy value = %v, want 3 (paper's failure case)", v.Value)
	}
	if d.Value != 8 {
		t.Errorf("density-greedy value = %v, want 8", d.Value)
	}
	if opt.Value != 8 {
		t.Fatalf("optimum = %v, want 8", opt.Value)
	}
	if c.Value != opt.Value {
		t.Errorf("combined = %v, want optimal %v", c.Value, opt.Value)
	}
}

func TestValidate(t *testing.T) {
	if err := (&Problem{}).Validate(); err == nil {
		t.Error("empty problem should fail validation")
	}
	p := &Problem{Items: []Item{{Values: []float64{1}, Weights: []float64{1, 2}}}}
	if err := p.Validate(); err == nil {
		t.Error("mismatched lengths should fail validation")
	}
	p = &Problem{Items: []Item{{}}}
	if err := p.Validate(); err == nil {
		t.Error("zero-level item should fail validation")
	}
	p = paperCase1()
	if err := p.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
}

func TestSingleItemClimbsToCap(t *testing.T) {
	p := &Problem{
		Budget: 100,
		Items: []Item{{
			Values:  []float64{1, 2, 3, 4, 5, 6},
			Weights: []float64{1, 2, 4, 8, 16, 32},
			Cap:     10,
		}},
	}
	got := p.Combined()
	if got.Levels[0] != 4 {
		t.Errorf("level = %d, want 4 (weight 8 <= cap 10 < 16)", got.Levels[0])
	}
	opt := p.BruteForce()
	if opt.Value != got.Value {
		t.Errorf("greedy %v != optimal %v on a single item", got.Value, opt.Value)
	}
}

func TestSharedBudgetBinds(t *testing.T) {
	// Two identical items; budget fits one full upgrade path plus a partial.
	mk := func() Item {
		return Item{
			Values:  []float64{0, 3, 5, 6},
			Weights: []float64{0, 1, 2.5, 4.5},
			Cap:     100,
		}
	}
	p := &Problem{Budget: 3.5, Items: []Item{mk(), mk()}}
	got := p.Combined()
	opt := p.BruteForce()
	if got.Weight > p.Budget+1e-12 {
		t.Fatalf("combined exceeded budget: %v > %v", got.Weight, p.Budget)
	}
	if got.Value < opt.Value/2 {
		t.Errorf("combined %v below half of optimal %v", got.Value, opt.Value)
	}
	// Optimum: one item to level 3 (weight 2.5) and the other to level 2
	// (weight 1), total weight 3.5 = budget, value 5 + 3 = 8. The greedy
	// reaches it here.
	if opt.Value != 8 {
		t.Errorf("optimum = %v, want 8", opt.Value)
	}
	if got.Value != 8 {
		t.Errorf("combined = %v, want 8", got.Value)
	}
}

func TestNegativeIncrementsStop(t *testing.T) {
	// Value decreases beyond level 2 (as h_n can under the variance term):
	// both passes must stop rather than climb.
	p := &Problem{
		Budget: 100,
		Items: []Item{{
			Values:  []float64{1, 4, 3, 2},
			Weights: []float64{1, 2, 3, 4},
			Cap:     100,
		}},
	}
	got := p.Combined()
	if got.Levels[0] != 2 {
		t.Errorf("level = %d, want 2 (stop at negative increment)", got.Levels[0])
	}
	if got.Value != 4 {
		t.Errorf("value = %v, want 4", got.Value)
	}
}

func TestAllBaseWhenBudgetTiny(t *testing.T) {
	p := paperCase2()
	p.Budget = 0
	got := p.Combined()
	for i, l := range got.Levels {
		if l != 1 {
			t.Errorf("item %d at level %d, want base level 1", i, l)
		}
	}
}

func TestPerItemCapGatesUpgrade(t *testing.T) {
	p := &Problem{
		Budget: 100,
		Items: []Item{
			{Values: []float64{0, 10}, Weights: []float64{0, 5}, Cap: 4},
			{Values: []float64{0, 1}, Weights: []float64{0, 1}, Cap: 4},
		},
	}
	got := p.Combined()
	if got.Levels[0] != 1 {
		t.Errorf("item 0 should be capped at base, got level %d", got.Levels[0])
	}
	if got.Levels[1] != 2 {
		t.Errorf("item 1 should upgrade, got level %d", got.Levels[1])
	}
}

// randomConcaveProblem builds an instance with concave non-decreasing values
// and convex non-decreasing weights, the shape assumed by Theorem 1.
func randomConcaveProblem(rng *rand.Rand, n, levels int) *Problem {
	items := make([]Item, n)
	var totalBase float64
	for i := range items {
		values := make([]float64, levels)
		weights := make([]float64, levels)
		dv := 1 + rng.Float64()*4
		dw := 0.2 + rng.Float64()
		v, w := rng.Float64(), rng.Float64()*0.5
		for l := 0; l < levels; l++ {
			v += dv
			w += dw
			values[l] = v
			weights[l] = w
			dv *= 0.4 + rng.Float64()*0.6 // shrinking increments: concave
			dw *= 1 + rng.Float64()       // growing increments: convex
		}
		items[i] = Item{Values: values, Weights: weights, Cap: weights[0] + rng.Float64()*weights[levels-1]}
		totalBase += weights[0]
	}
	return &Problem{
		Items:  items,
		Budget: totalBase + rng.Float64()*float64(n)*2,
	}
}

// TestCombinedHalfApproximation is the empirical check of Theorem 1: on
// random concave/convex instances the combined greedy achieves at least half
// the brute-force optimum.
func TestCombinedHalfApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(4)
		levels := 2 + rng.Intn(5)
		p := randomConcaveProblem(rng, n, levels)
		got := p.Combined()
		opt := p.BruteForce()
		if opt.Value <= 0 {
			continue
		}
		if got.Value < opt.Value/2-1e-9 {
			t.Fatalf("trial %d: combined %v < half of optimal %v\nproblem: %+v",
				trial, got.Value, opt.Value, p)
		}
		if got.Weight > p.Budget+1e-9 {
			t.Fatalf("trial %d: combined weight %v exceeds budget %v",
				trial, got.Weight, p.Budget)
		}
	}
}

// TestFractionalBoundDominatesOptimum checks V_p >= OPT (eq. (10) in the
// proof of Theorem 1) on random concave/convex instances.
func TestFractionalBoundDominatesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := randomConcaveProblem(rng, 2+rng.Intn(3), 2+rng.Intn(4))
		opt := p.BruteForce()
		vp := p.FractionalBound()
		if vp < opt.Value-1e-9 {
			t.Fatalf("trial %d: fractional bound %v below optimum %v",
				trial, vp, opt.Value)
		}
	}
}

// TestGreedyNearOptimalInPractice mirrors the paper's simulation finding
// that the algorithm is usually much better than its 1/2 worst case: on
// random realistic instances the mean ratio should exceed 95%.
func TestGreedyNearOptimalInPractice(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var ratioSum float64
	trials := 200
	for trial := 0; trial < trials; trial++ {
		p := randomConcaveProblem(rng, 4, 6)
		got := p.Combined()
		opt := p.BruteForce()
		if opt.Value <= 0 {
			ratioSum++
			continue
		}
		ratioSum += got.Value / opt.Value
	}
	if avg := ratioSum / float64(trials); avg < 0.95 {
		t.Errorf("average optimality ratio = %v, want >= 0.95", avg)
	}
}

func TestBruteForceRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		p := randomConcaveProblem(rng, 3, 4)
		opt := p.BruteForce()
		base := p.baseSolution()
		if opt.Weight > p.Budget+1e-9 && opt.Value != base.Value {
			t.Fatalf("optimal solution violates budget: %+v budget %v", opt, p.Budget)
		}
		for i, l := range opt.Levels {
			if l > 1 && p.Items[i].Weights[l-1] > p.Items[i].Cap+1e-9 {
				t.Fatalf("optimal solution violates per-item cap: item %d", i)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := paperCase2()
	a := p.Combined()
	b := p.Combined()
	if a.Value != b.Value || a.Weight != b.Weight {
		t.Errorf("Combined is not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] {
			t.Errorf("levels differ at %d", i)
		}
	}
}

func TestFractionalBoundPartialUpgrade(t *testing.T) {
	// One item, budget covers half the single upgrade: bound takes half the
	// value increment.
	p := &Problem{
		Budget: 1,
		Items: []Item{{
			Values:  []float64{0, 4},
			Weights: []float64{0, 2},
			Cap:     100,
		}},
	}
	if got := p.FractionalBound(); math.Abs(got-2) > 1e-9 {
		t.Errorf("fractional bound = %v, want 2", got)
	}
}

func TestTracedPassesMatchUntraced(t *testing.T) {
	p := paperCase2()
	var tr CombinedTrace
	traced := p.combinedTraced(&tr)
	plain := p.Combined()
	if traced.Value != plain.Value || traced.Weight != plain.Weight {
		t.Errorf("traced = %+v, plain = %+v", traced, plain)
	}
	if tr.Picked != BranchDensity && tr.Picked != BranchValue {
		t.Errorf("no branch picked: %+v", tr)
	}
	if tr.Picked.String() != "density" && tr.Picked.String() != "value" {
		t.Errorf("branch string = %q", tr.Picked.String())
	}
}

func TestTraceRecordsBudgetRejection(t *testing.T) {
	// Two identical items; the budget admits exactly one upgrade, so the
	// second upgrade attempt must be reverted with a budget rejection.
	p := &Problem{
		Budget: 3,
		Items: []Item{
			{Values: []float64{1, 2}, Weights: []float64{1, 2}, Cap: 100},
			{Values: []float64{1, 2}, Weights: []float64{1, 2}, Cap: 100},
		},
	}
	var tr PassTrace
	sol := p.DensityGreedyTraced(&tr)
	if sol.Weight > p.Budget {
		t.Fatalf("infeasible solution: %+v", sol)
	}
	if tr.Upgrades != 1 {
		t.Errorf("upgrades = %d, want 1", tr.Upgrades)
	}
	if len(tr.Rejections) != 1 {
		t.Fatalf("rejections = %+v, want exactly one", tr.Rejections)
	}
	rej := tr.Rejections[0]
	if rej.Reason != rejectBudget || rej.Level != 2 {
		t.Errorf("rejection = %+v, want budget at level 2", rej)
	}
	if rej.Reason.String() != "budget" {
		t.Errorf("reason string = %q", rej.Reason.String())
	}
}

func TestTraceRecordsCapRejection(t *testing.T) {
	// Ample shared budget but a tight per-item cap: the upgrade fails the
	// B_n check.
	p := &Problem{
		Budget: 100,
		Items: []Item{
			{Values: []float64{1, 2}, Weights: []float64{1, 5}, Cap: 2},
		},
	}
	var tr PassTrace
	sol := p.ValueGreedyTraced(&tr)
	if sol.Levels[0] != 1 {
		t.Fatalf("cap-violating upgrade kept: %+v", sol)
	}
	if tr.Upgrades != 0 || len(tr.Rejections) != 1 {
		t.Fatalf("trace = %+v", tr)
	}
	if got := tr.Rejections[0]; got.Reason != rejectItemCap || got.Reason.String() != "user-cap" {
		t.Errorf("rejection = %+v, want user-cap", got)
	}
}

func TestTraceNilIsAccepted(t *testing.T) {
	p := paperCase2()
	a := p.combinedTraced(nil)
	b := p.DensityGreedyTraced(nil)
	c := p.ValueGreedyTraced(nil)
	if a.Value < b.Value || a.Value < c.Value {
		t.Errorf("combined %v below a pass (%v, %v)", a.Value, b.Value, c.Value)
	}
}

// Validate reports structural problems with the instance.
func (p *Problem) Validate() error {
	if len(p.Items) == 0 {
		return errors.New("knapsack: no items")
	}
	for i, it := range p.Items {
		if len(it.Values) == 0 {
			return fmt.Errorf("knapsack: item %d has no levels", i)
		}
		if len(it.Values) != len(it.Weights) {
			return fmt.Errorf("knapsack: item %d has %d values but %d weights",
				i, len(it.Values), len(it.Weights))
		}
	}
	return nil
}

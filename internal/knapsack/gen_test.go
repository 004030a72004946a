package knapsack

import (
	"math"
	"math/rand"
	"testing"
)

// randomArbitraryProblem builds an instance with no shape guarantees:
// values may be non-monotone and non-concave, weights non-monotone and
// non-convex, caps and budget anywhere from binding to slack. It exercises
// every branch of the greedy passes (negative scores, dw <= 0 degeneracy,
// cap and budget rejections) without the Theorem 1 preconditions.
func randomArbitraryProblem(rng *rand.Rand, n, levels int) *Problem {
	items := make([]Item, n)
	for i := range items {
		values := make([]float64, levels)
		weights := make([]float64, levels)
		for l := 0; l < levels; l++ {
			values[l] = math.Round((rng.Float64()*20-5)*16) / 16
			weights[l] = math.Round(rng.Float64()*10*16) / 16
			if rng.Intn(4) == 0 && l > 0 {
				weights[l] = weights[l-1] // flat step: dw == 0 path
			}
		}
		cap_ := math.Round(rng.Float64()*12*16) / 16
		if rng.Intn(3) == 0 {
			cap_ = weights[levels-1] + 1 // slack cap
		}
		items[i] = Item{Values: values, Weights: weights, Cap: cap_}
	}
	budget := math.Round(rng.Float64()*float64(n)*8*16) / 16
	if rng.Intn(5) == 0 {
		budget = 0
	}
	return &Problem{Items: items, Budget: budget}
}

// exactTieProblem builds identical items, so every pick of both passes is
// an exact score tie: the deterministic rule (lowest index first) fully
// determines the outcome.
func exactTieProblem(n int, budgetUpgrades int) *Problem {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Values:  []float64{0, 1, 1.5},
			Weights: []float64{0, 1, 2},
			Cap:     100,
		}
	}
	return &Problem{Items: items, Budget: float64(budgetUpgrades)}
}

// generatorShapes enumerates the instance families the differential suites
// draw from; name shows up in failure messages.
type shapeGen struct {
	name string
	gen  func(rng *rand.Rand) *Problem
}

func allShapes() []shapeGen {
	return []shapeGen{
		{"concave", func(rng *rand.Rand) *Problem {
			return randomConcaveProblem(rng, 1+rng.Intn(10), 1+rng.Intn(7))
		}},
		{"arbitrary", func(rng *rand.Rand) *Problem {
			return randomArbitraryProblem(rng, 1+rng.Intn(10), 1+rng.Intn(7))
		}},
		{"tied", func(rng *rand.Rand) *Problem {
			return exactTieProblem(2+rng.Intn(6), rng.Intn(8))
		}},
		{"paper1", func(rng *rand.Rand) *Problem { return paperCase1() }},
		{"paper2", func(rng *rand.Rand) *Problem { return paperCase2() }},
	}
}

// checkFeasible asserts the greedy feasibility contract: the base level is
// always admissible; any upgraded item satisfies its cap, and if any item
// upgraded at all the total weight satisfies the shared budget.
func checkFeasible(t *testing.T, p *Problem, sol Solution, who string) {
	t.Helper()
	upgraded := false
	for i, l := range sol.Levels {
		if l < 1 || l > p.Items[i].levels() {
			t.Fatalf("%s: item %d at out-of-range level %d", who, i, l)
		}
		if l > 1 {
			upgraded = true
			if p.Items[i].Weights[l-1] > p.Items[i].Cap+1e-9 {
				t.Fatalf("%s: item %d level %d weight %v exceeds cap %v",
					who, i, l, p.Items[i].Weights[l-1], p.Items[i].Cap)
			}
		}
	}
	if upgraded && sol.Weight > p.Budget+1e-9 {
		t.Fatalf("%s: upgraded solution weight %v exceeds budget %v", who, sol.Weight, p.Budget)
	}
	value, weight := p.valueOf(sol.Levels)
	if math.Abs(value-sol.Value) > 1e-6*(1+math.Abs(value)) {
		t.Fatalf("%s: reported value %v, recomputed %v", who, sol.Value, value)
	}
	if math.Abs(weight-sol.Weight) > 1e-6*(1+math.Abs(weight)) {
		t.Fatalf("%s: reported weight %v, recomputed %v", who, sol.Weight, weight)
	}
}

// equalSolutions asserts bit-identical levels, value and weight.
func equalSolutions(t *testing.T, want, got Solution, who string) {
	t.Helper()
	if len(want.Levels) != len(got.Levels) {
		t.Fatalf("%s: level count %d != %d", who, len(got.Levels), len(want.Levels))
	}
	for i := range want.Levels {
		if want.Levels[i] != got.Levels[i] {
			t.Fatalf("%s: levels differ at item %d: got %v, want %v", who, i, got.Levels, want.Levels)
		}
	}
	if math.Float64bits(want.Value) != math.Float64bits(got.Value) {
		t.Fatalf("%s: value %v (bits %x) != reference %v (bits %x)",
			who, got.Value, math.Float64bits(got.Value), want.Value, math.Float64bits(want.Value))
	}
	if math.Float64bits(want.Weight) != math.Float64bits(got.Weight) {
		t.Fatalf("%s: weight %v != reference %v", who, got.Weight, want.Weight)
	}
}

// equalPassTraces asserts identical upgrade counts and rejection sequences.
func equalPassTraces(t *testing.T, want, got PassTrace, who string) {
	t.Helper()
	if want.Upgrades != got.Upgrades {
		t.Fatalf("%s: upgrades %d != reference %d", who, got.Upgrades, want.Upgrades)
	}
	if len(want.Rejections) != len(got.Rejections) {
		t.Fatalf("%s: rejections %+v != reference %+v", who, got.Rejections, want.Rejections)
	}
	for i := range want.Rejections {
		if want.Rejections[i] != got.Rejections[i] {
			t.Fatalf("%s: rejection %d: %+v != reference %+v",
				who, i, got.Rejections[i], want.Rejections[i])
		}
	}
}

package knapsack

// Property-based tests on randomized instances (seeded, table-driven):
// the analytic guarantees of Section III hold on every draw, and every
// solver returns feasible solutions. Shapes that need the Theorem 1
// preconditions (concave values, convex weights) use the concave
// generator; feasibility holds unconditionally and is also checked on
// arbitrary instances.

import (
	"math/rand"
	"testing"
)

// propertyTables drives every property over several (seed, size) corners.
var propertyTables = []struct {
	name           string
	seed           int64
	trials         int
	maxN, maxL     int
	bruteForceAble bool // keep L^N enumerable
}{
	{"small-dense", 101, 200, 4, 4, true},
	{"small-tall", 202, 150, 3, 6, true},
	{"mid", 303, 120, 5, 4, true},
	{"wide-no-bruteforce", 404, 60, 24, 6, false},
}

// TestPropertyCombinedHalfOfOptimal is Theorem 1 as an executable
// property: Combined().Value >= BruteForce().Value / 2 on concave/convex
// instances, for both engines.
func TestPropertyCombinedHalfOfOptimal(t *testing.T) {
	var s Solver
	for _, tbl := range propertyTables {
		if !tbl.bruteForceAble {
			continue
		}
		t.Run(tbl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tbl.seed))
			for trial := 0; trial < tbl.trials; trial++ {
				p := randomConcaveProblem(rng, 1+rng.Intn(tbl.maxN), 1+rng.Intn(tbl.maxL))
				opt := p.BruteForce()
				if opt.Value <= 0 {
					continue
				}
				for who, sol := range map[string]Solution{
					"solver":    s.Combined(p),
					"reference": p.ReferenceCombined(),
				} {
					if sol.Value < opt.Value/2-1e-9 {
						t.Fatalf("trial %d (%s): combined %v < half of optimal %v\nproblem: %+v",
							trial, who, sol.Value, opt.Value, p)
					}
				}
			}
		})
	}
}

// TestPropertyDPBruteForceFractionalSandwich checks the solver ordering
// chain on concave/convex instances:
//
//	DynamicProgram (feasible, grid-rounded) <= BruteForce (exact optimum)
//	                                       <= FractionalBound (V_p).
func TestPropertyDPBruteForceFractionalSandwich(t *testing.T) {
	for _, tbl := range propertyTables {
		if !tbl.bruteForceAble {
			continue
		}
		t.Run(tbl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tbl.seed ^ 0xD1D1))
			for trial := 0; trial < tbl.trials; trial++ {
				p := randomConcaveProblem(rng, 1+rng.Intn(tbl.maxN), 1+rng.Intn(tbl.maxL))
				resolution := p.Budget / float64(64+rng.Intn(4096))
				dp := p.DynamicProgram(resolution)
				opt := p.BruteForce()
				vp := p.FractionalBound()
				if dp.Value > opt.Value+1e-9 {
					t.Fatalf("trial %d: DP %v above brute force %v (resolution %v)",
						trial, dp.Value, opt.Value, resolution)
				}
				if opt.Value > vp+1e-9 {
					t.Fatalf("trial %d: brute force %v above fractional bound %v",
						trial, opt.Value, vp)
				}
			}
		})
	}
}

// TestPropertyEverySolverFeasible asserts the feasibility contract for
// every solver on both concave and arbitrary instances: per-item caps on
// all upgraded levels, shared budget whenever any upgrade was taken, and
// self-consistent Value/Weight bookkeeping.
func TestPropertyEverySolverFeasible(t *testing.T) {
	var s Solver
	for _, tbl := range propertyTables {
		t.Run(tbl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tbl.seed ^ 0xFEA5))
			for trial := 0; trial < tbl.trials; trial++ {
				var p *Problem
				if trial%2 == 0 {
					p = randomConcaveProblem(rng, 1+rng.Intn(tbl.maxN), 1+rng.Intn(tbl.maxL))
				} else {
					p = randomArbitraryProblem(rng, 1+rng.Intn(tbl.maxN), 1+rng.Intn(tbl.maxL))
				}
				checkFeasible(t, p, s.Combined(p), "solver-combined")
				checkFeasible(t, p, s.densityGreedy(p, nil), "solver-density")
				checkFeasible(t, p, s.valueGreedy(p, nil), "solver-value")
				checkFeasible(t, p, p.ReferenceCombined(), "reference-combined")
				checkFeasible(t, p, p.DynamicProgram(p.Budget/512), "dp")
				if tbl.bruteForceAble {
					checkFeasible(t, p, p.BruteForce(), "bruteforce")
				}
			}
		})
	}
}

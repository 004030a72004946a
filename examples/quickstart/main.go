// Quickstart: allocate quality levels for a handful of collaborative VR
// users with Algorithm 1 (the Density/Value-Greedy allocator) and compare
// the result with the exact per-slot optimum.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netem"
)

func main() {
	// QoE weights of the paper's simulation: alpha (delay), beta
	// (variance), and a six-level quality ladder.
	params := core.DefaultSimParams()

	// Three users with heterogeneous links. Rate[q-1] is the rate needed to
	// stream user n's predicted tiles at quality q; here a convex ladder
	// scaled per user. Delay is the expected delivery delay per level (the
	// M/M/1 model of eq. (13), in milliseconds for a 60 FPS slot).
	ladder := []float64{8, 13, 21, 34, 55, 89}
	mkUser := func(scale, cap_, delta, meanQ float64) core.UserInput {
		rates := make([]float64, len(ladder))
		for i, r := range ladder {
			rates[i] = r * scale
		}
		return core.UserInput{
			Rate:  rates,
			Delay: netem.DelayTableMs(rates, cap_, 1000.0/60),
			Delta: delta, // motion-prediction success probability
			MeanQ: meanQ, // running mean of viewed quality
			Cap:   cap_,  // B_n(t)
		}
	}

	problem := &core.SlotProblem{
		T:      120, // two seconds into the session
		Budget: 108, // B(t): 36 Mbps per user
		Users: []core.UserInput{
			mkUser(1.0, 80, 0.97, 3.8), // strong link, stable history
			mkUser(1.1, 45, 0.92, 2.9), // mid link
			mkUser(0.9, 25, 0.85, 2.1), // weak link, noisy prediction
		},
	}
	if err := problem.Validate(params); err != nil {
		panic(err)
	}

	alloc := core.NewSolverAllocator().Allocate(params, problem)
	opt := core.Optimal{}.Allocate(params, problem)

	fmt.Println("per-slot quality allocation (Algorithm 1 vs exact optimum)")
	for n := range problem.Users {
		fmt.Printf("  user %d: level %d (rate %.1f Mbps)   optimal: level %d\n",
			n, alloc.Levels[n], problem.Users[n].Rate[alloc.Levels[n]-1], opt.Levels[n])
	}
	fmt.Printf("objective: %.4f (DV-greedy) vs %.4f (optimal), ratio %.3f\n",
		alloc.Value, opt.Value, alloc.Value/opt.Value)
	fmt.Printf("total rate: %.1f of %.1f Mbps budget\n", alloc.Rate, problem.Budget)
}

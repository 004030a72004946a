// Ablation: why Algorithm 1 combines the density-greedy and value-greedy
// passes. This example replays the two adversarial instances of Section III
// — on the first, density-greedy earns 1/4 of the optimum; on the second,
// value-greedy earns 3/8 — and then measures all variants against the exact
// optimum across random instances shaped like the paper's workload.
//
// Run with:
//
//	go run ./examples/ablation
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/randsrc"
)

func main() {
	adversarialCases()
	randomizedStudy()
}

func adversarialCases() {
	fmt.Println("## Section III adversarial instances")

	// With alpha = beta = 0 the per-slot objective is h_n(q) = delta_n * q,
	// so a user's upgrade increment equals its delta. Choosing deltas and
	// rates reproduces the structure of the paper's two counterexamples.
	params2 := core.Params{Alpha: 0, Beta: 0, Levels: 2}

	// Case 1 (density trap): user 0's upgrade is small but dense
	// (0.25 value at 0.5 rate = 0.5 density); user 1's is large but sparse
	// (1.0 value at 2.5 rate = 0.4 density). Budget 2.5 fits only one.
	// Density-greedy takes user 0 and forfeits the big gain; value-greedy
	// finds the optimum.
	case1 := &core.SlotProblem{
		T:      1,
		Budget: 2.5,
		Users: []core.UserInput{
			{Rate: []float64{0, 0.5}, Delay: []float64{0, 0}, Delta: 0.25, Cap: 100},
			{Rate: []float64{0, 2.5}, Delay: []float64{0, 0}, Delta: 1.0, Cap: 100},
		},
	}
	report(params2, "case 1 (density trap)", case1)

	// Case 2 (value trap): four cheap upgrades (value 0.5 at rate 0.5 each,
	// density 1.0) against one big upgrade (value 1.0 at rate 2.0, density
	// 0.5) under budget 2. Value-greedy grabs the big one and exhausts the
	// budget (gain 1.0); density-greedy takes the four cheap ones (gain
	// 2.0), which is optimal.
	case2 := &core.SlotProblem{
		T:      1,
		Budget: 2,
		Users: []core.UserInput{
			{Rate: []float64{0, 0.5}, Delay: []float64{0, 0}, Delta: 0.5, Cap: 100},
			{Rate: []float64{0, 0.5}, Delay: []float64{0, 0}, Delta: 0.5, Cap: 100},
			{Rate: []float64{0, 0.5}, Delay: []float64{0, 0}, Delta: 0.5, Cap: 100},
			{Rate: []float64{0, 0.5}, Delay: []float64{0, 0}, Delta: 0.5, Cap: 100},
			{Rate: []float64{0, 2.0}, Delay: []float64{0, 0}, Delta: 1.0, Cap: 100},
		},
	}
	report(params2, "case 2 (value trap)", case2)
	fmt.Println()
}

func report(params core.Params, name string, p *core.SlotProblem) {
	d := core.DensityOnly{}.Allocate(params, p)
	v := core.ValueOnly{}.Allocate(params, p)
	dv := core.NewSolverAllocator().Allocate(params, p)
	opt := core.Optimal{}.Allocate(params, p)
	fmt.Printf("%-22s density=%.2f value=%.2f combined=%.2f optimal=%.2f\n",
		name, d.Value, v.Value, dv.Value, opt.Value)
}

func randomizedStudy() {
	fmt.Println("## Randomized study: mean fraction of the per-slot optimum")
	params := core.DefaultSimParams()
	rng := randsrc.NewRand(7)
	ladder := []float64{8, 13, 21, 34, 55, 89}

	var dSum, vSum, dvSum float64
	const trials = 300
	dvgreedy := core.NewSolverAllocator()
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(3)
		users := make([]core.UserInput, n)
		for i := range users {
			scale := 0.6 + rng.Float64()
			cap_ := 20 + rng.Float64()*80
			rates := make([]float64, len(ladder))
			for q, r := range ladder {
				rates[q] = r * scale
			}
			users[i] = core.UserInput{
				Rate:  rates,
				Delay: netem.DelayTableMs(rates, cap_, 1000.0/60),
				Delta: 0.8 + rng.Float64()*0.2,
				MeanQ: rng.Float64() * 6,
				Cap:   cap_,
			}
		}
		p := &core.SlotProblem{
			T:      1 + rng.Intn(1000),
			Budget: 36 * float64(n) * (0.5 + rng.Float64()),
			Users:  users,
		}
		opt := core.Optimal{}.Allocate(params, p)
		if opt.Value <= 0 {
			dSum++
			vSum++
			dvSum++
			continue
		}
		dSum += core.DensityOnly{}.Allocate(params, p).Value / opt.Value
		vSum += core.ValueOnly{}.Allocate(params, p).Value / opt.Value
		dvSum += dvgreedy.Allocate(params, p).Value / opt.Value
	}
	fmt.Printf("density-greedy: %.4f\n", dSum/trials)
	fmt.Printf("value-greedy:   %.4f\n", vSum/trials)
	fmt.Printf("combined (Alg 1): %.4f  (Theorem 1 guarantees >= 0.5)\n", dvSum/trials)
}

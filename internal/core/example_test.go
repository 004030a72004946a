package core_test

import (
	"fmt"

	"repro/internal/core"
)

// ExampleSolverAllocator_Allocate allocates one slot for two users with Algorithm 1.
func ExampleSolverAllocator_Allocate() {
	params := core.Params{Alpha: 0.02, Beta: 0.5, Levels: 3}
	problem := &core.SlotProblem{
		T:      1,
		Budget: 30,
		Users: []core.UserInput{
			{
				Rate:  []float64{5, 12, 26},
				Delay: []float64{2, 6, 20},
				Delta: 0.95,
				Cap:   40,
			},
			{
				Rate:  []float64{5, 12, 26},
				Delay: []float64{4, 15, 200},
				Delta: 0.9,
				Cap:   18,
			},
		},
	}
	a := core.NewSolverAllocator().Allocate(params, problem)
	fmt.Printf("levels: %v\n", a.Levels)
	fmt.Printf("rate: %.0f of %.0f Mbps\n", a.Rate, problem.Budget)
	// Output:
	// levels: [2 2]
	// rate: 24 of 30 Mbps
}

// ExampleVarianceTerms shows the per-slot decomposition of the quality
// variance (eq. (4)): the terms sum to T times the variance.
func ExampleVarianceTerms() {
	viewed := []float64{4, 4, 0, 4} // one slot missed its FoV
	terms := core.VarianceTerms(viewed)
	var sum float64
	for _, term := range terms {
		sum += term
	}
	fmt.Printf("sum of terms: %.2f\n", sum)
	fmt.Printf("T * variance: %.2f\n", 4*core.HorizonVariance(viewed))
	// Output:
	// sum of terms: 12.00
	// T * variance: 12.00
}

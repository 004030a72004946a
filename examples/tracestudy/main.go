// Tracestudy: a compact version of the paper's Section IV study. It runs
// the trace-based simulator over broadband+LTE network traces and synthetic
// 6-DoF motion for ten users, compares Algorithm 1 against Firefly and
// modified PAVQ (plus the density-only and value-only ablations), and
// prints a per-component breakdown of where the QoE comes from.
//
// Run with:
//
//	go run ./examples/tracestudy
package main

import (
	"fmt"
	"os"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracestudy:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := sim.DefaultConfig(10)
	cfg.Seconds = 30
	cfg.Runs = 8
	cfg.IncludeOptimal = false

	algorithms := []sim.AlgorithmFactory{
		{Name: "proposed", New: func() core.Allocator { return core.NewSolverAllocator() }},
		{Name: "dp-optimal", New: func() core.Allocator { return core.DPOptimal{} }},
		{Name: "density", New: func() core.Allocator { return core.DensityOnly{} }},
		{Name: "value", New: func() core.Allocator { return core.ValueOnly{} }},
		{Name: "firefly", New: func() core.Allocator { return baseline.NewFirefly() }},
		{Name: "pavq", New: func() core.Allocator { return baseline.NewPAVQ() }},
		{Name: "uniform", New: func() core.Allocator { return baseline.NewUniform() }},
	}

	fmt.Printf("trace study: %d users, %gs, %d trace draws (half broadband, half LTE)\n\n",
		cfg.Users, cfg.Seconds, cfg.Runs)
	results, err := sim.Run(cfg, algorithms)
	if err != nil {
		return err
	}

	fmt.Printf("%-10s %10s | %10s %12s %10s   QoE = quality - %.2f*delay - %.1f*variance\n",
		"algorithm", "QoE", "quality", "delay(ms)", "variance", cfg.Params.Alpha, cfg.Params.Beta)
	for _, r := range results {
		qoe, quality, delay, variance := r.CDFs()
		fmt.Printf("%-10s %10.4f | %10.4f %12.4f %10.4f\n",
			r.Name, qoe.Mean(), quality.Mean(), delay.Mean(), variance.Mean())
	}

	// Tail behaviour: the unlucky users (10th percentile of QoE) are where
	// variance-aware allocation pays off most.
	fmt.Printf("\n10th-percentile (worst users) QoE:\n")
	for _, r := range results {
		fmt.Printf("  %-10s %8.4f\n", r.Name, metrics.NewCDF(r.QoE).Quantile(0.1))
	}
	return nil
}

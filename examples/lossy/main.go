// Lossy: the Discussion-section loss-handling extension in action. The same
// two-user live session runs twice over a link that drops 20% of RTP
// packets — once with plain fire-and-forget delivery (the paper's deployed
// configuration, where "it is inevitable to have packet loss during the
// transmission") and once with the NACK-driven retransmission extension —
// and prints the coverage and QoE difference.
//
// Run with:
//
//	go run ./examples/lossy
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/testbed"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lossy:", err)
		os.Exit(1)
	}
}

func run() error {
	base := testbed.Config{
		Setup: testbed.Setup{
			Name:             "lossy-2users",
			Users:            2,
			Routers:          1,
			ServerBudgetMbps: 200,
			Throttles:        []float64{50, 60},
			JitterFrac:       0.05,
			LossProb:         0.20,
		},
		Slots:        400,
		SlotDuration: 6 * time.Millisecond,
		Seed:         7,
		Params:       core.DefaultSystemParams(),
	}

	fmt.Println("streaming through a 20% lossy link...")

	plain, err := testbed.Run(base, "plain-rtp", core.NewSolverAllocator())
	if err != nil {
		return err
	}

	withNack := base
	withNack.LossHandling = true
	recovered, err := testbed.Run(withNack, "rtp+nack", core.NewSolverAllocator())
	if err != nil {
		return err
	}

	fmt.Printf("\n%-12s %10s %10s %10s %8s\n", "mode", "QoE", "coverage", "variance", "FPS")
	for _, r := range []*struct {
		name string
		res  *testbed.Result
	}{
		{"plain RTP", plain},
		{"RTP + NACK", recovered},
	} {
		a := r.res.Aggregate
		fmt.Printf("%-12s %10.4f %10.4f %10.4f %8.1f\n",
			r.name, a.QoE, a.Coverage, a.Variance, r.res.FPS)
	}

	var retransmits int
	for _, st := range recovered.ServerStats {
		retransmits += st.Retransmits
	}
	fmt.Printf("\nNACK-driven retransmissions: %d tiles\n", retransmits)
	fmt.Printf("coverage recovered: %+.1f%%\n",
		(recovered.Aggregate.Coverage-plain.Aggregate.Coverage)*100)
	return nil
}

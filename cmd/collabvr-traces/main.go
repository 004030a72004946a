// Command collabvr-traces generates the trace datasets the reproduction
// substitutes for the paper's external data: 6-DoF motion traces (standing
// in for the Firefly 25-user dataset) and network-throughput traces
// (standing in for the FCC broadband and Ghent 4G/LTE datasets). Traces are
// written as CSV files that the simulator and examples can reload.
//
// Usage:
//
//	collabvr-traces -out ./traces -users 25 -seconds 300 -nettraces 50
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/motion"
	"repro/internal/nettrace"
	"repro/internal/randsrc"
)

// The traces are 60 slots per second (the paper's display rate) from seed 1.
const (
	fps  = 60
	seed = 1
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "collabvr-traces:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("collabvr-traces", flag.ContinueOnError)
	var (
		out      = fs.String("out", "traces", "output directory")
		users    = fs.Int("users", 25, "number of motion-trace users")
		seconds  = fs.Float64("seconds", 300, "trace length in seconds")
		netCount = fs.Int("nettraces", 50, "number of network traces (half broadband, half LTE)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Checked before anything is written: a trace shorter than one slot
	// would be an empty file, and a negative count or length has no trace.
	slots := int(*seconds * fps)
	switch {
	case !(*seconds > 0) || math.IsInf(*seconds, 1) || slots < 1:
		return fmt.Errorf("-seconds %v: want a finite length of at least one slot (1/%d s)", *seconds, fps)
	case *users < 0:
		return fmt.Errorf("-users %d: want zero or more", *users)
	case *netCount < 0:
		return fmt.Errorf("-nettraces %d: want zero or more", *netCount)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	ds := motion.GenerateDataset(*users, slots, fps, seed)
	for u, trace := range ds.Traces {
		path := filepath.Join(*out, fmt.Sprintf("motion-user%02d.csv", u))
		if err := writeMotion(path, trace); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d motion traces (%d slots each) to %s\n", *users, slots, *out)

	rng := randsrc.NewRand(seed)
	cfg := nettrace.DefaultConfig()
	cfg.Seconds = *seconds
	traces := nettrace.GenerateMix(*netCount, cfg, rng)
	for i, tr := range traces {
		kind := "broadband"
		if i%2 == 1 {
			kind = "lte"
		}
		path := filepath.Join(*out, fmt.Sprintf("net-%s-%03d.csv", kind, i))
		if err := writeNet(path, tr); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d network traces to %s\n", *netCount, *out)
	return nil
}

func writeMotion(path string, trace motion.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteCSV(f)
}

func writeNet(path string, tr *nettrace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return tr.WriteCSV(f)
}

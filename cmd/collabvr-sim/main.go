// Command collabvr-sim runs the trace-based simulation of Section IV and
// prints the CDF series of Figs. 2 (5 users) and 3 (30 users): average QoE,
// average quality, average delivery delay, and quality variance, for the
// proposed algorithm, Firefly, modified PAVQ and (small N) the per-slot
// optimum.
//
// Usage:
//
//	collabvr-sim -users 5 -seconds 60 -runs 20
//	collabvr-sim -users 30 -seconds 300 -runs 100   # paper scale
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "collabvr-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("collabvr-sim", flag.ContinueOnError)
	var (
		users    = fs.Int("users", 5, "number of users N")
		seconds  = fs.Float64("seconds", 60, "trace length in seconds (paper: 300)")
		runs     = fs.Int("runs", 20, "independent trace draws per user (paper: 100)")
		optimal  = fs.Bool("optimal", false, "force the brute-force optimum on (default: only for N<=6)")
		points   = fs.Int("points", 11, "CDF points to print per series")
		csvDir   = fs.String("csv", "", "directory to dump raw per-user samples as CSV (empty = no dump)")
		traceOut = fs.String("trace-out", "", "write the per-slot decision trace as JSONL to this file (empty = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := sim.DefaultConfig(*users)
	cfg.Seconds = *seconds
	cfg.Runs = *runs
	if *optimal {
		cfg.IncludeOptimal = true
	}

	var rec *obs.Recorder
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		defer f.Close()
		rec = obs.NewRecorder(obs.RecorderOptions{RingSize: 256, Writer: f})
		cfg.Recorder = rec
	}

	figure := "Fig 2"
	if *users > 6 {
		figure = "Fig 3"
	}
	fmt.Printf("# %s-style trace-based simulation: N=%d, %gs, %d runs, alpha=%g beta=%g\n\n",
		figure, *users, *seconds, *runs, cfg.Params.Alpha, cfg.Params.Beta)

	results, err := sim.Run(cfg, sim.StandardAlgorithms(cfg.IncludeOptimal))
	if err != nil {
		return err
	}

	names := make([]string, len(results))
	qoeCDFs := make([]*metrics.CDF, len(results))
	qualCDFs := make([]*metrics.CDF, len(results))
	delayCDFs := make([]*metrics.CDF, len(results))
	varCDFs := make([]*metrics.CDF, len(results))
	for i, r := range results {
		names[i] = r.Name
		qoeCDFs[i], qualCDFs[i], delayCDFs[i], varCDFs[i] = r.CDFs()
	}

	fmt.Print(metrics.FormatSeries(figure+"a: average QoE CDF", *points, names, qoeCDFs))
	fmt.Println()
	fmt.Print(metrics.FormatSeries(figure+"b: average quality CDF", *points, names, qualCDFs))
	fmt.Println()
	fmt.Print(metrics.FormatSeries(figure+"c: average delivery delay CDF (ms)", *points, names, delayCDFs))
	fmt.Println()
	fmt.Print(metrics.FormatSeries(figure+"d: quality variance CDF", *points, names, varCDFs))
	fmt.Println()

	fmt.Printf("# mean across runs and users\n")
	fmt.Printf("%-10s %10s %10s %12s %10s\n", "algorithm", "QoE", "quality", "delay(ms)", "variance")
	for i := range results {
		fmt.Printf("%-10s %10.4f %10.4f %12.4f %10.4f\n",
			names[i], qoeCDFs[i].Mean(), qualCDFs[i].Mean(), delayCDFs[i].Mean(), varCDFs[i].Mean())
	}

	if *csvDir != "" {
		if err := dumpCSV(*csvDir, results); err != nil {
			return err
		}
		fmt.Printf("# raw samples written to %s\n", *csvDir)
	}
	if rec != nil {
		fmt.Println()
		fmt.Print(rec.Summary().Format())
		if err := rec.Err(); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Printf("# decision trace written to %s\n", *traceOut)
	}
	return nil
}

// dumpCSV writes one file per algorithm with the raw per-(run,user)
// samples, ready for external plotting.
func dumpCSV(dir string, results []*sim.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range results {
		f, err := os.Create(filepath.Join(dir, "samples-"+r.Name+".csv"))
		if err != nil {
			return err
		}
		w := csv.NewWriter(f)
		if err := w.Write([]string{"qoe", "quality", "delay_ms", "variance"}); err != nil {
			f.Close()
			return err
		}
		for i := range r.QoE {
			rec := []string{
				strconv.FormatFloat(r.QoE[i], 'g', 8, 64),
				strconv.FormatFloat(r.Quality[i], 'g', 8, 64),
				strconv.FormatFloat(r.Delay[i], 'g', 8, 64),
				strconv.FormatFloat(r.Variance[i], 'g', 8, 64),
			}
			if err := w.Write(rec); err != nil {
				f.Close()
				return err
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Command collabvr-inspect reports on the JSONL a run exports. Each
// subcommand reads the named files (stdin for none or "-"), tolerates a live
// writer's torn last line, and prints text or, with -json, indented JSON:
//
//	spans   end-to-end request spans (-span-out on collabvr-loadgen,
//	        collabvr-server and collabvr-client, or collabvr-figures -spans):
//	        per-stage latency quantiles, critical-path attribution (which
//	        stage most often dominates a trace) and the slowest traces
//	regret  decision records (collabvr-loadgen -decisions-out,
//	        collabvr-sim -trace-out): which sessions, in which slots, lost
//	        how much objective value, and why (budget rejection, per-user
//	        cap, unprofitable counterfactual, channel estimate error, or the
//	        greedy heuristic's structural residue)
//	health  health-plane time series (collabvr-loadgen -health-out, or its
//	        /debug/health): per-series trends and, with -baseline, a gate
//	        that exits nonzero when a series regressed past the tolerance
//	        in its bad direction
//
// Usage:
//
//	collabvr-inspect spans -top 10 server.jsonl client.jsonl
//	collabvr-loadgen -span-out /dev/stdout ... | collabvr-inspect spans -
//	collabvr-inspect regret -json decisions.jsonl
//	collabvr-inspect health -name fleet_ health.jsonl
//	collabvr-inspect health -write-baseline results/health_baseline.json health.jsonl
//	collabvr-inspect health -baseline results/health_baseline.json health.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "collabvr-inspect:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	cmds := map[string]func([]string, io.Writer) error{
		"spans":  spans,
		"regret": regret,
		"health": health,
	}
	if len(args) > 0 {
		if cmd := cmds[args[0]]; cmd != nil {
			return cmd(args[1:], out)
		}
	}
	return fmt.Errorf("usage: collabvr-inspect {spans,regret,health} [flags] [file ...]")
}

func spans(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("collabvr-inspect spans", flag.ContinueOnError)
	var (
		topN   = fs.Int("top", 3, "slowest-trace exemplars to print")
		asJSON = fs.Bool("json", false, "emit the full analysis as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	recs, skipped, err := readAll(fs.Args(), trace.ReadSpansTolerant)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return errEmpty("spans")
	}
	noteSkipped(out, skipped, *asJSON)
	a := trace.Analyze(recs, *topN)
	if *asJSON {
		return obs.WriteJSON(out, a)
	}
	fmt.Fprint(out, a.Format())
	return nil
}

func regret(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("collabvr-inspect regret", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	recs, skipped, err := readAll(fs.Args(), obs.ReadSlotRecords)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return errEmpty("decision records")
	}
	attr := obs.NewRegretAttributor(obs.RegretAttributorOptions{})
	for i := range recs {
		attr.Observe(&recs[i])
	}
	noteSkipped(out, skipped, *asJSON)
	rep := attr.Report()
	if *asJSON {
		return obs.WriteJSON(out, rep)
	}
	fmt.Fprint(out, rep.Format())
	return nil
}

// healthReport is the health subcommand's document: trends over the raw
// tier and (when a baseline is given) the regressions.
type healthReport struct {
	Series      int               `json:"series"`
	Skipped     int               `json:"skipped,omitempty"`
	Trends      []tsdb.Trend      `json:"trends"`
	Regressions []tsdb.Regression `json:"regressions,omitempty"`
}

// The baseline gate counts a series as regressed when its summary drifts
// past baselineTolerance of the baseline in its bad direction and by more
// than baselineAbsFloor (near-zero baseline noise).
const (
	baselineTolerance = 0.10
	baselineAbsFloor  = 0.05
)

func health(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("collabvr-inspect health", flag.ContinueOnError)
	var (
		asJSON    = fs.Bool("json", false, "emit the report as JSON instead of text")
		name      = fs.String("name", "", "only series whose name contains this substring")
		baseline  = fs.String("baseline", "", "compare against this snapshot JSONL and exit nonzero on regression")
		writeBase = fs.String("write-baseline", "", "write the (filtered) current snapshots to this path and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	snaps, skipped, err := readAll(fs.Args(), tsdb.ReadSnapshots)
	if err != nil {
		return err
	}
	if *name != "" {
		kept := snaps[:0]
		for _, s := range snaps {
			if strings.Contains(s.Name, *name) {
				kept = append(kept, s)
			}
		}
		snaps = kept
	}
	if len(snaps) == 0 {
		return errEmpty("health series")
	}

	if *writeBase != "" {
		f, err := os.Create(*writeBase)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		for i := range snaps {
			if err := enc.Encode(&snaps[i]); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d series to %s\n", len(snaps), *writeBase)
		return nil
	}

	rep := healthReport{Series: len(snaps), Skipped: skipped}
	for _, s := range snaps {
		rep.Trends = append(rep.Trends, tsdb.TrendOf(s))
	}

	if *baseline != "" {
		base, _, err := readAll([]string{*baseline}, tsdb.ReadSnapshots)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		rep.Regressions = tsdb.Compare(base, snaps, baselineTolerance, baselineAbsFloor)
	}

	if *asJSON {
		if err := obs.WriteJSON(out, rep); err != nil {
			return err
		}
	} else {
		formatHealth(out, rep)
	}
	if n := len(rep.Regressions); n > 0 {
		return fmt.Errorf("%d series regressed vs baseline", n)
	}
	return nil
}

func formatHealth(out io.Writer, rep healthReport) {
	fmt.Fprintf(out, "# health: %d series", rep.Series)
	if rep.Skipped > 0 {
		fmt.Fprintf(out, ", %d partial trailing line(s) skipped", rep.Skipped)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-34s %5s %7s %6s %10s %10s %10s %5s\n",
		"series", "shard", "kind", "points", "first", "last", "mean", "dir")
	for _, tr := range rep.Trends {
		fmt.Fprintf(out, "%-34s %5d %7s %6d %10.4g %10.4g %10.4g %5s\n",
			tr.Name, tr.Shard, tr.Kind, tr.Points, tr.First, tr.Last, tr.Mean, tr.Direction)
	}
	if len(rep.Regressions) > 0 {
		fmt.Fprintf(out, "# regressions vs baseline\n")
		for _, r := range rep.Regressions {
			fmt.Fprintln(out, r.String())
		}
	}
}

// readAll concatenates the records read from each path ("-", or no paths
// at all, is stdin) and sums the torn trailing lines each read skipped.
func readAll[T any](paths []string, read func(io.Reader) ([]T, int, error)) ([]T, int, error) {
	if len(paths) == 0 {
		paths = []string{"-"}
	}
	var (
		all     []T
		skipped int
	)
	for _, path := range paths {
		r := io.NopCloser(os.Stdin)
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				return nil, 0, err
			}
			r = f
		}
		recs, sk, err := read(r)
		r.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		all = append(all, recs...)
		skipped += sk
	}
	return all, skipped, nil
}

func errEmpty(what string) error { return fmt.Errorf("no %s in input", what) }

// noteSkipped tells a text reader that a live writer's torn tail was left
// out; JSON output stays a single document.
func noteSkipped(out io.Writer, skipped int, asJSON bool) {
	if skipped > 0 && !asJSON {
		fmt.Fprintf(out, "# skipped %d partial trailing line(s) (live writer)\n", skipped)
	}
}

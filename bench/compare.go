package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x end-to-end metric row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's value after a change (b) with its value before
// (a). The change is worse or better when the median moved by more than the
// bound, as a share of a's median. When either side's own segments spread
// wider than the bound the row is unresolved — the run cannot tell a move
// of that size from noise — unless every segment of one side beats every
// segment of the other.
func judge(d metricDef, a, b stat) string {
	if a.Value == 0 {
		return verdictUnresolved
	}
	scale := a.Value
	if scale < 0 {
		scale = -scale
	}
	sign := 1.0 // positive change = better
	if d.Better == lower {
		sign = -1
	}
	change := sign * (b.Value - a.Value) / scale
	verdict := verdictSame
	switch {
	case change < -d.Bound:
		verdict = verdictWorse
	case change > d.Bound:
		verdict = verdictBetter
	}
	if (a.Max-a.Min)/scale <= d.Bound && (b.Max-b.Min)/scale <= d.Bound {
		return verdict
	}
	// Noisy segments: only a clean separation still counts. Orient both
	// ranges so that higher is better.
	aLo, aHi := sign*a.Min, sign*a.Max
	bLo, bHi := sign*b.Min, sign*b.Max
	if sign < 0 {
		aLo, aHi, bLo, bHi = aHi, aLo, bHi, bLo
	}
	switch {
	case len(a.Segments) == 0 || len(b.Segments) == 0:
		return verdictUnresolved
	case bLo > aHi:
		return verdictBetter
	case bHi < aLo && verdict == verdictWorse:
		return verdictWorse
	}
	return verdictUnresolved
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &result{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// compareFiles prints one row per workload x end-to-end metric and fails on
// any worse row or any rise in failed sessions.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# a: %s (commit %s, GOMAXPROCS %d)\n# b: %s (commit %s, GOMAXPROCS %d)\n",
		pathA, a.Stamp.Commit, a.Stamp.GOMAXPROCS, pathB, b.Stamp.Commit, b.Stamp.GOMAXPROCS)
	fmt.Fprintf(out, "%-12s %-20s %14s %14s %7s  %s\n", "workload", "metric", "a", "b", "bound", "verdict")
	regressed := false
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil || wa.E2E == nil || wb.E2E == nil {
			continue
		}
		for _, d := range e2eMetrics {
			v := judge(d, wa.E2E[d.Name], wb.E2E[d.Name])
			fmt.Fprintf(out, "%-12s %-20s %14.6g %14.6g %6.0f%%  %s\n",
				w.Name, d.Name, wa.E2E[d.Name].Value, wb.E2E[d.Name].Value, d.Bound*100, v)
			regressed = regressed || v == verdictWorse
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		if fb > fa {
			fmt.Fprintf(out, "%-12s failed sessions rose from %d/%d to %d/%d\n", w.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			regressed = true
		}
	}
	if regressed {
		return errors.New("b is worse than a")
	}
	return nil
}

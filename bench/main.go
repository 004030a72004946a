// Command bench is the repository's benchmark: four workloads driven through
// the program's exported functions only, nine end-to-end metrics measured
// with every telemetry hook nil, and two per-layer passes — a walk over each
// layer's public calls and a traced run of the workloads themselves with the
// program's existing seams switched on. See README.md in this directory.
//
//	go run ./bench                                   every workload, both passes
//	go run ./bench -workload sim_dense -trace 0      one workload, end to end
//	go run ./bench -workload live_lossy -trace 1     one workload, per layer
//	go run ./bench -walk                             the layer walk alone
//	go run ./bench -compare a/result.json b/result.json
//
// Each workload runs in a fresh child process (bench -child <workload>), so
// peak memory and allocation counts belong to that workload alone.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the timed part of one run.
const defaultSeconds = 20

func main() {
	start := time.Now()
	if err := run(os.Args[1:], os.Stdout, start); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errChecks is returned when a run finished but an output check failed.
var errChecks = errors.New("output checks failed")

func run(args []string, out io.Writer, start time.Time) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: all of "+strings.Join(workloadNames(), ", ")+")")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", defaultSeconds, "timed seconds of one run, split into equal segments")
		pass    = fs.String("trace", "", "0: end-to-end pass only; 1: per-layer pass only (traced run + layer walk); default both")
		walk    = fs.Bool("walk", false, "run the layer walk alone")
		outDir  = fs.String("out", filepath.Join("bench", "out"), "directory for result.json and the spans-*.jsonl files")
		compare = fs.Bool("compare", false, "compare two result.json files given as arguments; non-zero exit on a regression")
		smoke   = fs.Bool("smoke", false, "run every workload once at a 60-slot horizon, in this process, and check its outputs")
		child   = fs.String("child", "", "internal: run this workload (or \"walk\") in this process and print its result as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pass != "" && *pass != "0" && *pass != "1" {
		return fmt.Errorf("-trace %q: want 0 or 1", *pass)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds %v: want a positive number", *seconds)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result.json files")
		}
		return compareFiles(out, fs.Arg(0), fs.Arg(1))
	case *smoke:
		return runSmoke(out, *seed)
	case *child != "":
		return runChild(out, *child, *seed, *seconds, *pass == "1", *outDir, start)
	}

	selected := workloads
	switch {
	case *walk:
		selected, *pass = nil, "1" // the per-layer pass with no workload is the walk alone
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
		}
		selected = []workload{w}
	}
	res := &result{Stamp: newStamp(*seed, *seconds), Workloads: map[string]*workloadResult{}}
	fmt.Fprintf(out, "# bench: seed %d, %g s per run, commit %s, %s, num_cpu %d, GOMAXPROCS %d\n",
		res.Stamp.Seed, res.Stamp.Seconds, res.Stamp.Commit, res.Stamp.GoVersion, res.Stamp.NumCPU, res.Stamp.GOMAXPROCS)

	spawn := func(target string, traced bool) (*workloadResult, error) {
		return spawnChild(target, *seed, *seconds, traced, *outDir)
	}
	var problems []string
	for _, w := range selected {
		wr := &workloadResult{Workload: w.Name, Correct: true}
		res.Workloads[w.Name] = wr
		fmt.Fprintf(out, "\n## %s — %s\n", w.Name, w.Loop)
		if *pass != "1" {
			e2e, err := spawn(w.Name, false)
			if err != nil {
				return err
			}
			wr.merge(e2e)
			printStats(out, w.Name, e2eMetrics, wr.E2E)
		}
		if *pass != "0" {
			traced, err := spawn(w.Name, true)
			if err != nil {
				return err
			}
			wr.merge(traced)
			printStats(out, w.Name, tracedMetrics, wr.Layers)
		}
		fmt.Fprintf(out, "%s: sessions attempted %d, failed %d\n", w.Name, wr.Attempted, wr.Failed)
		for _, p := range wr.Problems {
			problems = append(problems, w.Name+": "+p)
		}
	}
	if *pass != "0" {
		wr, err := spawn("walk", true)
		if err != nil {
			return err
		}
		res.Walk = wr.Layers
		fmt.Fprintf(out, "\n## layer walk\n")
		printStats(out, "walk", walkMetrics, wr.Layers)
		problems = append(problems, wr.Problems...)
		for _, w := range selected {
			// The walk's metrics ride in every workload's per-layer line,
			// so its checks count against each.
			res.Workloads[w.Name].Correct = res.Workloads[w.Name].Correct && wr.Correct
		}
	}
	err := finish(out, res, *outDir, problems)
	if len(selected) == 1 && *pass != "" && (err == nil || errors.Is(err, errChecks)) {
		if lerr := printDriverLine(out, res.Workloads[selected[0].Name], res.Walk, *pass == "1"); lerr != nil {
			return lerr
		}
	}
	return err
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// finish writes result.json and turns failed output checks into the exit
// code.
func finish(out io.Writer, res *result, outDir string, problems []string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, p := range problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	if len(problems) > 0 {
		return errChecks
	}
	return nil
}

// printDriverLine prints the one-object summary a harness reads from the
// last line of standard output: the end-to-end metrics of an untraced run,
// or every per-layer metric of a traced one.
func printDriverLine(out io.Writer, wr *workloadResult, walk map[string]stat, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, map[string]value{}}
	if traced {
		for _, d := range layerMetrics() {
			st, ok := wr.Layers[d.Name]
			if !ok {
				st = walk[d.Name]
			}
			line.Metrics[d.Name] = value{st.Value, d.Unit}
		}
	} else {
		for _, d := range e2eMetrics {
			line.Metrics[d.Name] = value{wr.E2E[d.Name].Value, d.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

func printStats(out io.Writer, scope string, defs []metricDef, stats map[string]stat) {
	for _, d := range defs {
		st, ok := stats[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "%-12s %-32s %14.6g %-6s", scope, d.Name, st.Value, d.Unit)
		if len(st.Segments) > 1 {
			fmt.Fprintf(out, " [%.6g .. %.6g]", st.Min, st.Max)
		}
		if st.Samples > 0 {
			fmt.Fprintf(out, " n=%d", st.Samples)
		}
		fmt.Fprintln(out)
	}
}

// stamp records where and how a result was captured.
type stamp struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
}

func newStamp(seed int64, seconds float64) stamp {
	commit := "unknown" // a source export is not a git checkout
	if sha, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(sha))
	}
	return stamp{
		Seed: seed, Seconds: seconds, Commit: commit, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: childProcs(),
	}
}

// childProcs is the GOMAXPROCS every child runs at: the workloads are sized
// for two to four cores.
func childProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// result is result.json: one invocation's metrics.
type result struct {
	Stamp     stamp                      `json:"stamp"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Walk      map[string]stat            `json:"walk,omitempty"`
}

// workloadResult is one workload's outcome; a child prints one, and the
// parent merges the end-to-end child's and the traced child's.
type workloadResult struct {
	Workload  string          `json:"workload"`
	Correct   bool            `json:"correct"`
	Problems  []string        `json:"problems,omitempty"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	E2E       map[string]stat `json:"e2e,omitempty"`
	Layers    map[string]stat `json:"layers,omitempty"`
}

func (wr *workloadResult) merge(child *workloadResult) {
	wr.Correct = wr.Correct && child.Correct
	wr.Problems = append(wr.Problems, child.Problems...)
	wr.Attempted += child.Attempted
	wr.Failed += child.Failed
	if child.E2E != nil {
		wr.E2E = child.E2E
	}
	if child.Layers != nil {
		wr.Layers = child.Layers
	}
}

// spawnChild runs one workload (or the walk) in a fresh process and decodes
// the result it prints. The child's diagnostics pass through on stderr.
func spawnChild(target string, seed int64, seconds float64, traced bool, outDir string) (*workloadResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	pass := "0"
	if traced {
		pass = "1"
	}
	cmd := exec.Command(exe, "-child", target, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", pass, "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s: %w", target, err)
	}
	wr := &workloadResult{}
	if err := json.Unmarshal(stdout.Bytes(), wr); err != nil {
		return nil, fmt.Errorf("child %s: decode result: %w", target, err)
	}
	return wr, nil
}

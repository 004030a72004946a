package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets the workload up, so that setup_s
// is a median too.
const setupRepeats = 3

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// meter reads the clock, the process CPU time and the allocation counter at
// every segment boundary of a run. A run has many short segments — a second
// of a live run, a pass of a sim run — and reports the median segment, so a
// burst of interference (or the cold first second) moves nothing.
type meter struct{ marks []mark }

type mark struct {
	t       time.Time
	cpu     time.Duration
	mallocs uint64
	slots   int // session-slots served since the run began
}

func newMeter() *meter {
	m := &meter{}
	m.mark(0)
	return m
}

// mark closes a segment; slots is the run's cumulative session-slots served.
func (m *meter) mark(slots int) {
	m.marks = append(m.marks, mark{t: time.Now(), cpu: cpuTime(), mallocs: mallocs(), slots: slots})
}

// finish closes the run. A tail of under half a second (what is left after a
// live run's last whole second) is folded into the segment before it rather
// than reported as a segment of a few slots.
func (m *meter) finish(slots int) {
	if n := len(m.marks); n > 1 && time.Since(m.marks[n-1].t) < time.Second/2 {
		m.marks = m.marks[:n-1]
	}
	m.mark(slots)
}

// cpu is the CPU time between the first and the latest mark.
func (m *meter) cpu() time.Duration { return m.marks[len(m.marks)-1].cpu - m.marks[0].cpu }

// segments returns, per segment that served anything: session-slots per
// second, CPU milliseconds per 1000 session-slots, allocations per
// session-slot.
func (m *meter) segments() (rate, cpuMs, allocs []float64) {
	for i := 1; i < len(m.marks); i++ {
		a, b := m.marks[i-1], m.marks[i]
		slots := float64(b.slots - a.slots)
		if slots <= 0 {
			continue
		}
		rate = append(rate, slots/b.t.Sub(a.t).Seconds())
		cpuMs = append(cpuMs, float64(b.cpu-a.cpu)/1e6/(slots/1000))
		allocs = append(allocs, float64(b.mallocs-a.mallocs)/slots)
	}
	return rate, cpuMs, allocs
}

// timedRun runs the timed part of a workload under a fresh meter.
func timedRun(r runner, b budget, tel *telemetry) (*runResult, *meter, error) {
	m := newMeter()
	res, err := r.run(b, tel, m)
	if err != nil {
		return nil, nil, err
	}
	if res.SessionSlots == 0 {
		return nil, nil, fmt.Errorf("served no session-slots")
	}
	return res, m, nil
}

// runChild runs one workload (or the walk) in this process and prints its
// workloadResult as one line of JSON.
func runChild(out io.Writer, target string, seed int64, seconds float64, traced bool, outDir string, start time.Time) error {
	runtime.GOMAXPROCS(childProcs())
	var wr *workloadResult
	var err error
	switch w, ok := workloadByName(target); {
	case target == "walk":
		wr, err = walkChild(seed, outDir)
	case !ok:
		return fmt.Errorf("unknown workload %q", target)
	case traced:
		wr, err = tracedChild(w, seed, seconds, outDir)
	default:
		wr, err = e2eChild(w, seed, seconds, start)
	}
	if err != nil {
		return err
	}
	wr.Correct = len(wr.Problems) == 0
	return json.NewEncoder(out).Encode(wr)
}

// e2eChild is the end-to-end pass: set the workload up setupRepeats times,
// keep the last set-up, and run the timed part with every telemetry hook nil.
func e2eChild(w workload, seed int64, seconds float64, start time.Time) (*workloadResult, error) {
	b := budget{Seconds: seconds}
	var r runner
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		// The first set-up is charged from process start, so that work a
		// later change moves into package initialisation still shows.
		if i > 0 {
			start = time.Now()
		}
		var err error
		if r, err = w.setup(seed, b); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res, m, err := timedRun(r, b, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	rate, cpuMs, allocs := m.segments()
	one := func(v float64) []float64 { return []float64{v} }
	sessions := len(res.DeliveryMs)
	values := map[string]struct {
		samples  int
		segments []float64
	}{
		"setup_s":           {setupRepeats, setups},
		"slots_per_s":       {res.SessionSlots, rate},
		"cpu_ms_per_kslot":  {res.SessionSlots, cpuMs},
		"allocs_per_slot":   {res.SessionSlots, allocs},
		"ontime_frame_frac": {res.SessionSlots, one(res.Ontime)},
		"delivery_ms_p50":   {sessions, one(median(res.DeliveryMs))},
		"quality_mean":      {sessions, one(res.ViewedLevel)},
		"served_frac":       {res.Attempted, one(1 - ratio(float64(res.Failed), float64(res.Attempted)))},
		"peak_rss_mb":       {1, one(peakRSSMB())},
	}
	wr := &workloadResult{
		Workload: w.Name, Attempted: res.Attempted, Failed: res.Failed, Problems: res.Problems,
		E2E: map[string]stat{},
	}
	for _, d := range e2eMetrics {
		wr.E2E[d.Name] = newStat(d.Unit, values[d.Name].samples, values[d.Name].segments)
	}
	return wr, nil
}

// tracedChild is the per-layer pass over a workload: a short untraced run,
// then the same run with the program's seams switched on. The ratio of
// their median CPU costs is the tracing overhead.
func tracedChild(w workload, seed int64, seconds float64, outDir string) (*workloadResult, error) {
	b := budget{Seconds: seconds / 3}
	r, err := w.setup(seed, b)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	plain, plainMeter, err := timedRun(r, b, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: untraced run: %w", w.Name, err)
	}
	log := newSpanLog()
	tel := newTelemetry(log, w.TraceSample)
	rt := startRuntimeDelta()
	traced, tracedMeter, err := timedRun(r, b, tel)
	if err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", w.Name, err)
	}
	layers := traced.Layers
	rt.into(layers)
	// What the sessions saw (the sim engines' virtual clients included).
	layers["client.coverage_frac"] = mean(traced.Coverage)
	layers["client.quality_mean"] = mean(traced.Quality)
	layers["client.qoe_mean"] = mean(traced.QoE)
	_, plainCPU, _ := plainMeter.segments()
	_, tracedCPU, _ := tracedMeter.segments()
	layers["trace.overhead_frac"] = ratio(median(tracedCPU), median(plainCPU)) - 1

	wr := &workloadResult{
		Workload:  w.Name,
		Attempted: plain.Attempted + traced.Attempted,
		Failed:    plain.Failed + traced.Failed,
		Problems:  append(plain.Problems, traced.Problems...),
		Layers:    map[string]stat{},
	}
	for _, d := range tracedMetrics {
		wr.Layers[d.Name] = newStat(d.Unit, traced.SessionSlots, []float64{layers[d.Name]})
	}
	var program []any
	for _, rec := range tel.tracer.Exporter().Recent(spansWritten) {
		program = append(program, rec)
	}
	return wr, writeSpans(outDir, w.Name, log.spans, program)
}

// spansWritten is how many of the program's newest request spans a traced
// run writes out next to the benchmark's own.
const spansWritten = 1 << 14

func writeSpans(outDir, name string, spans []span, program []any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return writeJSONL(filepath.Join(outDir, "spans-"+name+".jsonl"), spans, program)
}

// smokeSlots is the horizon of the smoke test's single pass.
const smokeSlots = 60

// runSmoke runs every workload once at a 60-slot horizon in this process:
// an untimed set-up with all hooks nil, then one run with the seams on, so
// both configurations execute and every output check runs.
func runSmoke(out io.Writer, seed int64) error {
	b := budget{Slots: smokeSlots}
	failed := false
	for _, w := range workloads {
		r, err := w.setup(seed, b)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		res, m, err := timedRun(r, b, newTelemetry(newSpanLog(), w.TraceSample))
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		fmt.Fprintf(out, "smoke %-12s %7d session-slots, %.0f ms CPU, %d sessions, %d failed, %d layer metrics\n",
			w.Name, res.SessionSlots, float64(m.cpu())/1e6, res.Attempted, res.Failed, len(res.Layers))
		for _, p := range res.Problems {
			fmt.Fprintf(out, "CHECK FAILED: %s: %s\n", w.Name, p)
			failed = true
		}
	}
	if failed {
		return errChecks
	}
	return nil
}

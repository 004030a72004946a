package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/load"
)

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "parent", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: the union counts once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the parent: clipped
		{Name: "grandchild", Parent: 1, Start: 12, End: 20},
	}
	got := selfTimes(spans)
	want := []int64{
		100 - (40 + 10), // [10,50) and [90,100)
		20 - 8,
		30,
		30,
		8,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestSpanLogNsPerOp(t *testing.T) {
	l := newSpanLog()
	root := l.begin("root", -1)
	l.timed("layer", root, 4, func() { time.Sleep(time.Millisecond) })
	l.timed("layer", root, 0, func() {}) // no operations: not a sample
	l.end(root, 1)
	got := l.nsPerOp("layer")
	if len(got) != 1 || got[0] < 250e3 {
		t.Fatalf("nsPerOp = %v, want one sample of at least 1ms/4", got)
	}
	if l.spans[1].Parent != root || l.spans[1].Run != 0 {
		t.Fatalf("span = %+v, want parent %d in run 0", l.spans[1], root)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		samples []float64
		p, want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{10, 20, 30, 40, 50}, 0.25, 20},
		{[]float64{10, 20}, 0.75, 17.5},
		{[]float64{5, 9}, 0, 5},
		{[]float64{5, 9}, 1, 9},
	}
	for _, c := range cases {
		if got := percentile(c.samples, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.samples, c.p, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
	if st := newStat("ms", 9, []float64{3, 1, 2}); st.Value != 2 || st.Min != 1 || st.Max != 3 || st.Samples != 9 {
		t.Errorf("newStat = %+v", st)
	}
}

func TestJudge(t *testing.T) {
	seg := func(vals ...float64) stat { return newStat("x", 1, vals) }
	lowerIs := metricDef{Name: "cpu", Better: lower, Bound: 0.10}
	higherIs := metricDef{Name: "rate", Better: higher, Bound: 0.10}
	cases := []struct {
		name string
		d    metricDef
		a, b stat
		want string
	}{
		{"inside the bound", lowerIs, seg(100, 101, 102), seg(104, 105, 106), verdictSame},
		{"lower metric rose", lowerIs, seg(100, 101, 102), seg(118, 120, 121), verdictWorse},
		{"lower metric fell", lowerIs, seg(100, 101, 102), seg(80, 81, 82), verdictBetter},
		{"higher metric fell", higherIs, seg(100, 101, 102), seg(80, 81, 82), verdictWorse},
		{"higher metric rose", higherIs, seg(100, 101, 102), seg(118, 120, 121), verdictBetter},
		{"noisy and overlapping", lowerIs, seg(90, 100, 130), seg(95, 125, 128), verdictUnresolved},
		{"noisy but unchanged is not same", lowerIs, seg(80, 100, 120), seg(81, 100, 119), verdictUnresolved},
		{"noisy yet every segment better", lowerIs, seg(100, 110, 125), seg(60, 70, 85), verdictBetter},
		{"noisy yet every segment worse", lowerIs, seg(100, 110, 125), seg(140, 150, 170), verdictWorse},
		{"zero baseline", lowerIs, seg(0, 0, 0), seg(1, 1, 1), verdictUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitsOnRegression(t *testing.T) {
	write := func(name string, cpu float64, failed int) string {
		res := result{Workloads: map[string]*workloadResult{"sim_dense": {
			Workload: "sim_dense", Attempted: 100, Failed: failed,
			E2E: map[string]stat{},
		}}}
		for _, d := range e2eMetrics {
			res.Workloads["sim_dense"].E2E[d.Name] = newStat(d.Unit, 1, []float64{10, 10, 10})
		}
		res.Workloads["sim_dense"].E2E["cpu_ms_per_kslot"] = newStat("ms", 1, []float64{cpu, cpu, cpu})
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 10, 0)
	var out bytes.Buffer
	if err := compareFiles(&out, base, write("same.json", 10.5, 0)); err != nil {
		t.Errorf("within bounds: %v\n%s", err, out.String())
	}
	if err := compareFiles(&out, base, write("slow.json", 13, 0)); err == nil {
		t.Errorf("a 30%% CPU rise passed:\n%s", out.String())
	}
	if err := compareFiles(&out, base, write("failing.json", 10, 1)); err == nil {
		t.Errorf("a rise in failed sessions passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "cpu_ms_per_kslot") || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("no per-metric row with a verdict:\n%s", out.String())
	}
}

// The timing wrapper must be invisible to the program: same decisions, and
// still the zero-copy path the server and load.Simulate look for.
func TestTimedAllocatorLeavesReportEqual(t *testing.T) {
	w, err := load.Generate(load.Config{Shape: load.Steady, Seed: 7, Sessions: 40, HorizonSlots: 90})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := load.Simulate(w, load.SimConfig{BudgetMbps: 18 * 40, AllocName: "proposed"})
	if err != nil {
		t.Fatal(err)
	}
	log := newSpanLog()
	tel := newTelemetry(log, 1)
	var a core.Allocator = tel.newAllocator()()
	if _, ok := a.(core.SharedAllocator); !ok {
		t.Fatal("timedAllocator does not offer AllocateShared: the server would leave its zero-copy path")
	}
	wrapped, err := load.Simulate(w, load.SimConfig{
		BudgetMbps: 18 * 40, AllocName: "proposed", NewAllocator: tel.newAllocator(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, wrapped) {
		t.Fatal("report with the timing wrapper differs from the report without it")
	}
	if n := len(log.durations(solveSpan)); n != 90 {
		t.Fatalf("the wrapper recorded %d solve spans, want one per slot (90)", n)
	}
}

func TestDeferArrivalsClearsLeaseWindows(t *testing.T) {
	w, p, err := churnWorkload(3, churnHorizon)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := load.Generate(w.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Sessions) != len(w.Sessions) {
		t.Fatalf("sessions %d -> %d: deferring must not drop any", len(raw.Sessions), len(w.Sessions))
	}
	moved := 0
	hold := make(map[uint32]int)
	for _, s := range raw.Sessions {
		hold[s.ID] = s.Slots()
		for _, f := range p.CoordFaults() {
			if s.ArriveSlot >= f.StartSlot && s.ArriveSlot < f.StartSlot+churnLeaseSlots {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("no raw arrival fell in a lease window: the test exercises nothing")
	}
	for i, s := range w.Sessions {
		for _, f := range p.CoordFaults() {
			if s.ArriveSlot >= f.StartSlot && s.ArriveSlot < f.StartSlot+churnLeaseSlots {
				t.Fatalf("session %d still arrives at %d, inside the window of the fault at %d", s.ID, s.ArriveSlot, f.StartSlot)
			}
		}
		if s.DepartSlot <= s.ArriveSlot || s.DepartSlot > churnHorizon {
			t.Fatalf("session %d lives [%d,%d)", s.ID, s.ArriveSlot, s.DepartSlot)
		}
		if s.DepartSlot < churnHorizon && s.Slots() != hold[s.ID] {
			t.Fatalf("session %d hold changed %d -> %d", s.ID, hold[s.ID], s.Slots())
		}
		if i > 0 {
			prev := w.Sessions[i-1]
			if prev.ArriveSlot > s.ArriveSlot || (prev.ArriveSlot == s.ArriveSlot && prev.ID > s.ID) {
				t.Fatalf("sessions out of (arrive, id) order at %d", i)
			}
		}
	}
}

// BENCHMARK.json at the repository root is the contract a harness reads; it
// must name exactly what this package reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q, want %q", i, bj.Workloads[i].Name, w.Name)
		}
		if n := len(bj.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, n)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, e2eMetrics) {
		t.Errorf("end_to_end differs from e2eMetrics:\n json %v\n code %v", bj.EndToEnd, e2eMetrics)
	}
	if !reflect.DeepEqual(bj.PerLayer, layerMetrics()) {
		t.Errorf("per_layer differs from layerMetrics()")
	}
	if len(bj.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(bj.PerLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(bj.EndToEnd, bj.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestDriverLineNamesEveryMetric(t *testing.T) {
	wr := &workloadResult{Correct: true, Attempted: 3, E2E: map[string]stat{}, Layers: map[string]stat{}}
	for _, d := range e2eMetrics {
		wr.E2E[d.Name] = newStat(d.Unit, 1, []float64{1.5})
	}
	for _, d := range tracedMetrics {
		wr.Layers[d.Name] = newStat(d.Unit, 1, []float64{2.5})
	}
	walk := map[string]stat{}
	for _, d := range walkMetrics {
		walk[d.Name] = newStat(d.Unit, 1, []float64{3.5})
	}
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		if err := printDriverLine(&out, wr, walk, traced); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(out.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		want := e2eMetrics
		if traced {
			want = layerMetrics()
		}
		if len(line.Metrics) != len(want) || !line.Correct || line.Attempted != 3 {
			t.Fatalf("traced=%v: %d metrics, want %d: %s", traced, len(line.Metrics), len(want), out.String())
		}
		for _, d := range want {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value == 0 {
				t.Errorf("traced=%v: metric %s = %+v", traced, d.Name, m)
			}
		}
	}
}

// The smoke run drives every workload through real sockets and both sim
// engines at a 60-slot horizon and applies every output check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the live rig for a few seconds")
	}
	var out bytes.Buffer
	start := time.Now()
	if err := run([]string{"-smoke"}, &out, start); err != nil {
		t.Fatalf("bench -smoke: %v\n%s", err, out.String())
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), "smoke "+w.Name) {
			t.Errorf("no smoke line for %s:\n%s", w.Name, out.String())
		}
	}
	t.Logf("smoke took %v\n%s", time.Since(start), out.String())
}

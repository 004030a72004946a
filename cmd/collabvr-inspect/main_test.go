package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/trace"
)

// writeSpanFile exports a small two-sided trace set through the real
// sync exporter, so the test input is the exact on-disk format.
func writeSpanFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	exp := trace.NewExporter(trace.ExporterOptions{Writer: f, Sync: true})
	clock := int64(0)
	tr := trace.New(trace.Options{Exporter: exp, Clock: func() int64 { clock += 1e6; return clock }})
	for slot := uint32(0); slot < 5; slot++ {
		tid := trace.TileTraceID(1, 7, slot)
		d := tr.Start(tid, trace.StageDecide, trace.SideServer, 7, slot)
		d.SetAlgo("proposed")
		d.End()
		tx := tr.Start(tid, trace.StageSend, trace.SideServer, 7, slot)
		tx.SetBytes(4096)
		tx.End()
		disp := tr.Start(tid, trace.StageDisplay, trace.SideClient, 7, slot)
		disp.SetOutcome(trace.OutcomeDisplayed)
		disp.End()
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSpansPrintsAnalysis(t *testing.T) {
	path := writeSpanFile(t)
	var out bytes.Buffer
	if err := run([]string{"spans", "-top", "2", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"span analysis", trace.StageDecide, trace.StageSend, trace.StageDisplay, "slowest"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestSpansJSON(t *testing.T) {
	path := writeSpanFile(t)
	var out bytes.Buffer
	if err := run([]string{"spans", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\"stitched\"") && !strings.Contains(out.String(), "\"Stitched\"") {
		t.Errorf("JSON output missing stitched field:\n%s", out.String())
	}
}

func TestSpansMergesMultipleFiles(t *testing.T) {
	a, b := writeSpanFile(t), writeSpanFile(t)
	var out bytes.Buffer
	if err := run([]string{"spans", a, b}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "span analysis") {
		t.Errorf("merged analysis missing:\n%s", out.String())
	}
}

// TestSpansToleratesLiveTail reads a span file whose last line is torn (a
// live writer mid-append): the analysis must succeed on the complete spans
// and report the skipped line.
func TestSpansToleratesLiveTail(t *testing.T) {
	path := writeSpanFile(t)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "live.jsonl")
	if err := os.WriteFile(torn, full[:len(full)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"spans", torn}, &out); err != nil {
		t.Fatalf("torn tail failed the run: %v", err)
	}
	if !strings.Contains(out.String(), "skipped 1 partial trailing line") {
		t.Errorf("output missing skipped-line note:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "span analysis") {
		t.Errorf("analysis missing:\n%s", out.String())
	}
}

func TestSpansErrors(t *testing.T) {
	garbage := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(garbage, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"spans", garbage}, &bytes.Buffer{}); err == nil {
		t.Error("malformed input should error")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"spans", empty}, &bytes.Buffer{}); err == nil {
		t.Error("empty input should error")
	}
	if err := run([]string{"spans", filepath.Join(t.TempDir(), "missing.jsonl")}, &bytes.Buffer{}); err == nil {
		t.Error("missing file should error")
	}
	if err := run([]string{"spans", "-top", "x"}, &bytes.Buffer{}); err == nil {
		t.Error("bad flag should error")
	}
}

// writeDecisions exports a small known decision stream and returns its path.
func writeDecisions(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "decisions.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.RecorderOptions{RingSize: 8, Writer: f})
	rec.Record(&obs.SlotRecord{
		Algorithm: "dvgreedy", Slot: 1, HasRegret: true, Regret: 2.0,
		SessionIDs: []uint32{10, 11},
		UserRegret: []float64{1.5, 0.5},
		Rejections: []obs.Rejection{{User: 0, Level: 3, Constraint: obs.ConstraintBudget}},
	})
	rec.Record(&obs.SlotRecord{
		Algorithm: "dvgreedy", Slot: 2,
		Alternatives: []obs.Alternative{{User: 0, Level: 2, Gain: 1.5, Reason: obs.ConstraintBudget}},
	})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegretAttributionReport(t *testing.T) {
	path := writeDecisions(t)
	var out bytes.Buffer
	if err := run([]string{"regret", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"regret attribution", "budget", "structural", "forgone gain"} {
		if !strings.Contains(text, want) {
			t.Errorf("report lacks %q:\n%s", want, text)
		}
	}
}

func TestRegretJSONReport(t *testing.T) {
	path := writeDecisions(t)
	var out bytes.Buffer
	if err := run([]string{"regret", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	var rep obs.RegretReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Slots != 2 || rep.TotalRegret != 2 || rep.Rows != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRegretToleratesLiveTail(t *testing.T) {
	path := writeDecisions(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.jsonl")
	if err := os.WriteFile(torn, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"regret", torn}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "skipped 1 partial trailing line") {
		t.Fatalf("no skip note:\n%s", out.String())
	}
}

func TestRegretRejectsBadInput(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("junk\n{\"algorithm\":\"x\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"regret", bad}, &out); err == nil {
		t.Fatal("interior corruption accepted")
	}
	if err := run([]string{"regret", filepath.Join(t.TempDir(), "missing.jsonl")}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"regret", empty}, &out); err == nil {
		t.Fatal("empty input accepted")
	}
}

// writeExport renders a store with one gauge and one miss counter to a
// JSONL file; missPerSlot scales the counter's growth so tests can fabricate
// regressions against a healthier baseline.
func writeExport(t *testing.T, dir, name string, missPerSlot float64) string {
	t.Helper()
	st := tsdb.New(tsdb.Options{})
	g := st.Series("fleet_slot_quality", tsdb.Gauge)
	c := st.Series("collabvr_slo_miss_total", tsdb.Counter)
	total := 0.0
	for slot := int64(0); slot < 64; slot++ {
		v := 4.0
		if slot == 40 {
			v = 0.1 // a dip
		}
		g.Observe(slot, v)
		total += missPerSlot
		c.Observe(slot, total)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestHealthReportTextAndJSON(t *testing.T) {
	dir := t.TempDir()
	path := writeExport(t, dir, "health.jsonl", 1)

	var out bytes.Buffer
	if err := run([]string{"health", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"fleet_slot_quality", "collabvr_slo_miss_total"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}

	out.Reset()
	if err := run([]string{"health", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	var rep healthReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Series != 2 || len(rep.Trends) != 2 {
		t.Errorf("%d series / %d trends, want 2 / 2", rep.Series, len(rep.Trends))
	}

	// The name filter narrows the report.
	out.Reset()
	if err := run([]string{"health", "-json", "-name", "quality", path}, &out); err != nil {
		t.Fatal(err)
	}
	rep = healthReport{}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Series != 1 || len(rep.Trends) != 1 {
		t.Errorf("filtered report has %d series / %d trends, want 1 / 1", rep.Series, len(rep.Trends))
	}
}

func TestHealthBaselineGate(t *testing.T) {
	dir := t.TempDir()
	good := writeExport(t, dir, "good.jsonl", 1)
	bad := writeExport(t, dir, "bad.jsonl", 5) // 5x the miss growth

	// Write a baseline from the healthy run.
	basePath := filepath.Join(dir, "baseline.json")
	var out bytes.Buffer
	if err := run([]string{"health", "-write-baseline", basePath, good}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote 2 series") {
		t.Fatalf("write-baseline output: %s", out.String())
	}

	// Healthy vs healthy passes.
	out.Reset()
	if err := run([]string{"health", "-baseline", basePath, good}, &out); err != nil {
		t.Fatalf("self-comparison regressed: %v\n%s", err, out.String())
	}

	// A 5x miss-rate run fails the gate and names the series.
	out.Reset()
	err := run([]string{"health", "-baseline", basePath, bad}, &out)
	if err == nil {
		t.Fatal("5x miss growth passed the baseline gate")
	}
	if !strings.Contains(err.Error(), "regressed") {
		t.Errorf("gate error = %v, want a regression message", err)
	}
	if !strings.Contains(out.String(), "collabvr_slo_miss_total") {
		t.Errorf("report does not name the regressed series:\n%s", out.String())
	}
}

func TestHealthBadAndEmptyInput(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"health", empty}, &bytes.Buffer{}); err == nil {
		t.Error("empty input accepted")
	}

	corrupt := filepath.Join(dir, "corrupt.jsonl")
	good := writeExport(t, dir, "ok.jsonl", 1)
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corrupt, append([]byte("{nope}\n"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"health", corrupt}, &bytes.Buffer{}); err == nil {
		t.Error("interior corruption accepted")
	}

	if err := run([]string{"health", filepath.Join(dir, "missing.jsonl")}, &bytes.Buffer{}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestRunNeedsSubcommand: no subcommand, or an unknown one, is an error
// that names all three.
func TestRunNeedsSubcommand(t *testing.T) {
	for _, args := range [][]string{nil, {"nope"}, {"-json"}} {
		err := run(args, &bytes.Buffer{})
		if err == nil {
			t.Fatalf("%v: accepted", args)
		}
		for _, sub := range []string{"spans", "regret", "health"} {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%v: error %q does not name %q", args, err, sub)
			}
		}
	}
}

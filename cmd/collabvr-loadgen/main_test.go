package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/baseline"
)

func TestRunSimReport(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-arrivals", "poisson", "-rate", "15", "-mean-hold", "1",
		"-slots", "240", "-sessions", "0", "-seed", "5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# loadgen report (sim", "aggregate deadline-miss rate", "qoe"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRecordReplayCheck(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.jsonl")

	var rec bytes.Buffer
	err := run([]string{"-arrivals", "flash", "-rate", "8", "-mean-hold", "1",
		"-slots", "240", "-sessions", "0", "-seed", "3",
		"-record", path, "-check-replay"}, &rec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec.String(), "replay check: OK") {
		t.Fatalf("missing replay-check confirmation:\n%s", rec.String())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("workload file not written: %v", err)
	}

	// Replaying the recorded file must reproduce the recorded run's report.
	var rep bytes.Buffer
	if err := run([]string{"-replay", path}, &rep); err != nil {
		t.Fatal(err)
	}
	recReport := rec.String()[strings.Index(rec.String(), "# loadgen report"):]
	repReport := rep.String()[strings.Index(rep.String(), "# loadgen report"):]
	if recReport != repReport {
		t.Fatalf("replayed report differs:\nrecorded:\n%s\nreplayed:\n%s", recReport, repReport)
	}
}

func TestRunFindCapacity(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-find-capacity", "-budget", "120", "-slots", "120",
		"-miss-target", "0.05", "-cap-lo", "1", "-cap-hi", "64"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# capacity search") ||
		!strings.Contains(out.String(), "capacity: ") {
		t.Fatalf("capacity search did not report a verdict:\n%s", out.String())
	}
	if strings.Contains(out.String(), "search ceiling reached") ||
		strings.Contains(out.String(), "below the search floor") {
		t.Fatalf("capacity should converge inside [1,64] at 120 Mbps:\n%s", out.String())
	}
}

func TestRunFleetShards(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-shards", "3", "-sessions", "6", "-slots", "240",
		"-budget", "300", "-seed", "5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fleet-sim", "fleet: scorer least-loaded", "placements 6"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("fleet report missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFleetSimReport(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-shards", "3", "-sessions", "6", "-slots", "300", "-budget", "300",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"fleet-sim", "spawned 6, completed 6",
		"fleet: scorer least-loaded", "placements 6",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunFleetFindCapacity(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-find-capacity", "-shards", "2", "-budget", "240",
		"-slots", "120", "-miss-target", "0.05", "-cap-lo", "1", "-cap-hi", "16",
		"-seed", "5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# fleet capacity search", "fleet total", "per-shard knee"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("fleet capacity output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunFleetFindCapacityNarrowRange: a fleet capacity search over a
// narrow [1,8] range at a generous budget still reports both the fleet
// total and the per-shard knee.
func TestRunFleetFindCapacityNarrowRange(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-find-capacity", "-shards", "2", "-budget", "400",
		"-cap-lo", "1", "-cap-hi", "8", "-miss-target", "0.05",
		"-slots", "120", "-seed", "5",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"fleet total", "per-shard knee"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunHealthExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "health.jsonl")
	var out bytes.Buffer
	err := run([]string{"-shards", "3", "-sessions", "6", "-slots", "240",
		"-budget", "300", "-seed", "5", "-evac", "-health-out", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"health: exported", "evac: ", "batch(es)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The export carries both fleet series and sampler-fed SLO series.
	for _, want := range []string{"fleet_shard_page_frac", "collabvr_slo_sessions_ok"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("health export missing series %q", want)
		}
	}
}

func TestRunFleetHealthExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "health.jsonl")
	var out bytes.Buffer
	err := run([]string{
		"-shards", "3", "-sessions", "6", "-slots", "300", "-budget", "300",
		"-evac", "-health-out", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"evac: ", "batch(es)", "health: exported"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// One document: coordinator fleet series plus sampler-fed SLO series.
	for _, want := range []string{"fleet_shard_page_frac", "collabvr_slo_sessions_ok"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("health export missing series %q", want)
		}
	}
}

// TestRunAlgoRegistry: -algo accepts every name in the allocator registry
// and rejects an unregistered one with those names in the error.
func TestRunAlgoRegistry(t *testing.T) {
	for _, name := range baseline.AllocatorNames() {
		err := run([]string{"-algo", name, "-sessions", "3", "-slots", "30"}, &bytes.Buffer{})
		if err != nil {
			t.Errorf("-algo %s: %v", name, err)
		}
	}
	err := run([]string{"-algo", "nope"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for _, name := range baseline.AllocatorNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"bad algo":             {"-algo", "nope"},
		"bad mode":             {"-mode", "warp"},
		"bad shards":           {"-shards", "0"},
		"bad scorer":           {"-shards", "2", "-scorer", "nope"},
		"shard faults 1 shard": {"-chaos", filepath.Join("..", "..", "examples", "chaos", "fleet.json")},
		"evac single shard":    {"-evac"},
		"health in live mode":  {"-mode", "live", "-health-out", "h.jsonl"},
		"unsharded scorer":     {"-scorer", "nope"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestRunFleetAlgoRegistry: every registered allocator also runs behind a
// sharded fleet.
func TestRunFleetAlgoRegistry(t *testing.T) {
	for _, name := range baseline.AllocatorNames() {
		err := run([]string{"-algo", name, "-shards", "2", "-sessions", "4",
			"-slots", "30", "-budget", "200"}, &bytes.Buffer{})
		if err != nil {
			t.Errorf("-algo %s: %v", name, err)
		}
	}
	err := run([]string{"-algo", "nope", "-shards", "2"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for _, name := range baseline.AllocatorNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestRunFleetRejectsBadFlags(t *testing.T) {
	cases := map[string][]string{
		"bad scorer":            {"-shards", "3", "-scorer", "nope"},
		"bad algo":              {"-shards", "3", "-algo", "nope"},
		"bad mode":              {"-shards", "3", "-mode", "nope"},
		"check without profile": {"-shards", "3", "-chaos-check"},
		"verify without chaos":  {"-shards", "3", "-verify-recovery"},
		"verify in live mode":   {"-shards", "3", "-verify-recovery", "-mode", "live"},
		"evac single shard":     {"-evac", "-shards", "1"},
	}
	for name, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%s: expected an error for %v", name, args)
		}
	}
}

func TestRunFleetVerifyRecovery(t *testing.T) {
	profile := filepath.Join("..", "..", "examples", "chaos", "fleet.json")
	if _, err := os.Stat(profile); err != nil {
		t.Skipf("fleet chaos profile not found: %v", err)
	}
	var out bytes.Buffer
	err := run([]string{
		"-chaos", profile, "-verify-recovery",
		"-shards", "3", "-sessions", "9", "-slots", "1200", "-seed", "42",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"degrades-not-drops: OK", "determinism: OK", "recovery: OK",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunFleetChaosCheck(t *testing.T) {
	profile := filepath.Join("..", "..", "examples", "chaos", "fleet.json")
	if _, err := os.Stat(profile); err != nil {
		t.Skipf("fleet chaos profile not found: %v", err)
	}
	var out bytes.Buffer
	if err := run([]string{"-shards", "3", "-chaos", profile, "-chaos-check"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "profile OK") {
		t.Errorf("missing validation verdict:\n%s", text)
	}
	if !strings.Contains(text, "shard") {
		t.Errorf("shard fault summary missing shard target:\n%s", text)
	}
}

func TestRunFleetPlacementsOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "placements.jsonl")
	var out bytes.Buffer
	err := run([]string{
		"-shards", "2", "-sessions", "4", "-slots", "120",
		"-placements-out", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1
	if lines != 4 {
		t.Errorf("placement JSONL has %d records, want 4:\n%s", lines, data)
	}
	if !strings.Contains(out.String(), "placements: exported 4 records") {
		t.Errorf("missing export summary:\n%s", out.String())
	}
}

// TestRunLiveFleetEvacHealth: a live fleet run takes -evac and -health-out
// like a sim one, and its export carries the coordinator's fleet series.
func TestRunLiveFleetEvacHealth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.jsonl")
	var out bytes.Buffer
	err := run([]string{"-mode", "live", "-shards", "2", "-sessions", "4",
		"-slots", "120", "-slotms", "10", "-budget", "300",
		"-evac", "-health-out", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fleet-live", "evac: ", "health: exported"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fleet_shard_page_frac") {
		t.Error("health export missing series fleet_shard_page_frac")
	}
}

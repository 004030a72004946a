package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/baseline"
)

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

func TestRunFleetVerifyRecovery(t *testing.T) {
	profile := filepath.Join("..", "..", "examples", "chaos", "fleet.json")
	if _, err := os.Stat(profile); err != nil {
		t.Skipf("fleet chaos profile not found: %v", err)
	}
	var out bytes.Buffer
	err := run([]string{
		"-chaos", profile, "-verify-recovery",
		"-sessions", "9", "-slots", "1200", "-seed", "42",
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
	if err := run([]string{"-chaos", profile, "-chaos-check"}, &out); err != nil {
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

func TestRunFleetFindCapacity(t *testing.T) {
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

// TestRunFleetAlgoRegistry: -algo accepts every name in the allocator
// registry and rejects an unregistered one with those names in the error.
func TestRunFleetAlgoRegistry(t *testing.T) {
	for _, name := range baseline.AllocatorNames() {
		err := run([]string{"-algo", name, "-shards", "2", "-sessions", "4",
			"-slots", "30", "-budget", "200"}, &bytes.Buffer{})
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

func TestRunFleetRejectsBadFlags(t *testing.T) {
	cases := map[string][]string{
		"bad scorer":            {"-scorer", "nope"},
		"bad algo":              {"-algo", "nope"},
		"bad mode":              {"-mode", "nope"},
		"check without profile": {"-chaos-check"},
		"verify without chaos":  {"-verify-recovery"},
		"verify in live mode":   {"-verify-recovery", "-mode", "live"},
		"evac single shard":     {"-evac", "-shards", "1"},
	}
	for name, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%s: expected an error for %v", name, args)
		}
	}
}

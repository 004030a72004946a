package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

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

func TestRunAttributionReport(t *testing.T) {
	path := writeDecisions(t)
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"regret attribution", "budget", "structural", "forgone gain"} {
		if !strings.Contains(text, want) {
			t.Errorf("report lacks %q:\n%s", want, text)
		}
	}
}

func TestRunJSONReport(t *testing.T) {
	path := writeDecisions(t)
	var out bytes.Buffer
	if err := run([]string{"-json", path}, &out); err != nil {
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

func TestRunToleratesLiveTail(t *testing.T) {
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
	if err := run([]string{torn}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "skipped 1 partial trailing line") {
		t.Fatalf("no skip note:\n%s", out.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("junk\n{\"algorithm\":\"x\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{bad}, &out); err == nil {
		t.Fatal("interior corruption accepted")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing.jsonl")}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{empty}, &out); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestRunTournamentDeterministic: the CLI's tournament mode produces a
// byte-identical ranked table for a fixed seed, and the table ranks every
// default candidate.
func TestRunTournamentDeterministic(t *testing.T) {
	args := []string{"-tournament", "-sessions", "4", "-slots", "120",
		"-budget", "60", "-seed", "7", "-regret-resolution", "2"}
	var out1, out2 bytes.Buffer
	if err := run(args, &out1); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &out2); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("tournament output differs between identical runs:\n%s\nvs\n%s",
			out1.String(), out2.String())
	}
	text := out1.String()
	for _, want := range []string{"policy tournament", "dvgreedy", "density",
		"firefly", "pavq", "uniform", "dvgreedy-alpha2x"} {
		if !strings.Contains(text, want) {
			t.Errorf("table lacks %q:\n%s", want, text)
		}
	}
	if err := run([]string{"-tournament", "somefile.jsonl"}, &out1); err == nil {
		t.Error("-tournament with input files accepted")
	}
}

// TestRunTournamentJSON: -tournament -json emits a parseable ranked result.
func TestRunTournamentJSON(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-tournament", "-json", "-sessions", "3", "-slots", "60",
		"-budget", "60", "-skip-regret"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Entries []struct {
			Rank    int     `json:"rank"`
			Name    string  `json:"name"`
			Fitness float64 `json:"fitness"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 8 || res.Entries[0].Rank != 1 {
		t.Fatalf("entries = %+v", res.Entries)
	}
}

package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func churnConfig(seed int64) Config {
	return Config{Shape: Poisson, Seed: seed, HorizonSlots: 600,
		RatePerSec: 12, MeanHoldSec: 2}
}

// TestRecordReplayRoundTrip is the determinism contract: generate with seed S,
// record to JSONL, read back, and the replayed workload must reproduce the
// identical event stream (byte for byte) and the identical simulated QoE
// report.
func TestRecordReplayRoundTrip(t *testing.T) {
	w, err := Generate(churnConfig(9))
	if err != nil {
		t.Fatal(err)
	}

	var rec bytes.Buffer
	if err := w.WriteJSONL(&rec); err != nil {
		t.Fatal(err)
	}
	replayed, err := ReadJSONL(bytes.NewReader(rec.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.Sessions, replayed.Sessions) {
		t.Fatal("replayed session specs differ from the generated ones")
	}
	if !reflect.DeepEqual(w.Cfg.withDefaults(), replayed.Cfg.withDefaults()) {
		t.Fatal("replayed config differs")
	}

	var rerec bytes.Buffer
	if err := replayed.WriteJSONL(&rerec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Bytes(), rerec.Bytes()) {
		t.Fatalf("record->replay->record is not byte-identical: %d vs %d bytes",
			rec.Len(), rerec.Len())
	}

	r1, err := Simulate(w, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(replayed, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("replayed workload produced a different simulated QoE report")
	}
	if r1.Completed == 0 {
		t.Fatal("simulation completed no sessions")
	}
}

// TestSameSeedByteIdenticalJSONL pins the generation side: two independent
// Generate calls with the same config must serialize to the same bytes.
func TestSameSeedByteIdenticalJSONL(t *testing.T) {
	var a, b bytes.Buffer
	for i, buf := range []*bytes.Buffer{&a, &b} {
		w, err := Generate(churnConfig(21))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if err := w.WriteJSONL(buf); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different JSONL bytes")
	}
}

// TestJSONLEventOrdering checks the documented stream shape: config first,
// then slot-ordered events with arrive < depart inside a slot.
func TestJSONLEventOrdering(t *testing.T) {
	w, err := Generate(Config{Shape: Steady, Sessions: 6, HorizonSlots: 120, MeanHoldSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatal("suspiciously short stream")
	}
	kindRank := map[string]int{"arrive": 0, "depart": 1}
	prevSlot, prevRank := -1, -1
	arrivals, departs := 0, 0
	for i, line := range lines {
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if i == 0 {
			if ev.E != "config" {
				t.Fatalf("first event is %q, want config", ev.E)
			}
			continue
		}
		rank, ok := kindRank[ev.E]
		if !ok {
			t.Fatalf("line %d: unexpected event %q", i+1, ev.E)
		}
		if ev.Slot < prevSlot || (ev.Slot == prevSlot && rank < prevRank) {
			t.Fatalf("line %d: event (%d,%s) out of order after (%d)", i+1, ev.Slot, ev.E, prevSlot)
		}
		prevSlot, prevRank = ev.Slot, rank
		switch ev.E {
		case "arrive":
			arrivals++
		case "depart":
			departs++
		}
	}
	if arrivals != len(w.Sessions) || departs != len(w.Sessions) {
		t.Fatalf("arrivals %d departs %d, want %d each", arrivals, departs, len(w.Sessions))
	}
}

func TestReadJSONLRejectsMalformed(t *testing.T) {
	w, err := Generate(Config{Shape: Steady, Sessions: 2, HorizonSlots: 60})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"missing config":   strings.Join(strings.Split(good, "\n")[1:], "\n"),
		"duplicate arrive": good + `{"e":"arrive","slot":0,"sess":{"id":0,"arrive":0,"depart":60}}` + "\n",
		"unknown event":    good + `{"e":"teleport","slot":3}` + "\n",
		"bogus depart":     good + `{"e":"depart","slot":3,"id":0}` + "\n",
		"unknown depart":   good + `{"e":"depart","slot":60,"id":99}` + "\n",
		"bad json":         good + "{nope\n",
	}
	for name, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
	if _, err := ReadJSONL(strings.NewReader(good)); err != nil {
		t.Errorf("well-formed stream rejected: %v", err)
	}
	// Poses are not part of the format: a pose line is an unknown event,
	// and the error names its line.
	line := strings.Count(good, "\n") + 1
	_, err = ReadJSONL(strings.NewReader(good + `{"e":"pose","slot":3,"id":0,"yaw":10}` + "\n"))
	if want := fmt.Sprintf("line %d: unknown event \"pose\"", line); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("pose event: err = %v, want it to contain %q", err, want)
	}
}

// TestSimulateDeterministic pins the virtual-time engine itself: same
// workload, same config, same report, and the metrics registry must not
// perturb it.
func TestSimulateDeterministic(t *testing.T) {
	w, err := Generate(churnConfig(33))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Simulate(w, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(w, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("Simulate is not deterministic")
	}
	if r1.Spawned != len(w.Sessions) || r1.Completed != r1.Spawned {
		t.Fatalf("accounting: spawned %d completed %d, want all %d",
			r1.Spawned, r1.Completed, len(w.Sessions))
	}
}

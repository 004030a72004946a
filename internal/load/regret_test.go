package load

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/nettrace"
	"repro/internal/obs"
)

// tinyWorkload is the smallest workload that still exercises churn: sessions
// arrive and depart inside the horizon, so SessionIDs shift against user
// indices.
func tinyWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := Generate(Config{Shape: Poisson, RatePerSec: 1.5, Sessions: 6,
		HorizonSlots: 240, Seed: 11, MeanHoldSec: 2,
		NetKinds: []nettrace.Kind{nettrace.Broadband},
		Net:      nettrace.Config{MinMbps: 20, MaxMbps: 80, Seconds: 30}})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSimulateRecordsDecisions: the sim engine's flight recorder captures one
// record per allocated slot with stable session IDs, a per-user objective
// decomposition that sums to the slot value, counterfactual alternatives, and
// DP-referenced regret; the JSONL stream round-trips through the shared
// tolerant reader.
func TestSimulateRecordsDecisions(t *testing.T) {
	w := tinyWorkload(t)
	var buf bytes.Buffer
	rec := obs.NewRecorder(obs.RecorderOptions{RingSize: 512, Writer: &buf})
	_, err := Simulate(w, SimConfig{
		Recorder:         rec,
		CounterfactualK:  3,
		RegretRef:        true,
		RegretResolution: 2,
		BudgetMbps:       60, // tight: forces budget rejections and regret
	})
	if err != nil {
		t.Fatal(err)
	}

	records, skipped, err := obs.ReadSlotRecords(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("reading decision stream: skipped=%d err=%v", skipped, err)
	}
	if len(records) == 0 || uint64(len(records)) != rec.Records() {
		t.Fatalf("stream has %d records, recorder saw %d", len(records), rec.Records())
	}

	sawAlternatives := false
	idsAtZero := map[uint32]bool{}
	for i := range records {
		r := &records[i]
		if r.Algorithm != "proposed" {
			t.Fatalf("slot %d: algorithm %q", r.Slot, r.Algorithm)
		}
		n := len(r.Levels)
		if n == 0 || len(r.SessionIDs) != n || len(r.UserValues) != n {
			t.Fatalf("slot %d: levels/ids/values lengths %d/%d/%d",
				r.Slot, n, len(r.SessionIDs), len(r.UserValues))
		}
		sum := 0.0
		for _, v := range r.UserValues {
			sum += v
		}
		if math.Abs(sum-r.Value) > 1e-9*(1+math.Abs(r.Value)) {
			t.Fatalf("slot %d: user values sum %v != value %v", r.Slot, sum, r.Value)
		}
		if !r.HasRegret || r.Regret < 0 || len(r.UserRegret) != n {
			t.Fatalf("slot %d: regret reference missing: %+v", r.Slot, r)
		}
		if len(r.Alternatives) > 0 {
			sawAlternatives = true
			if len(r.Alternatives) > 3 {
				t.Fatalf("slot %d: %d alternatives exceed K=3", r.Slot, len(r.Alternatives))
			}
		}
		idsAtZero[r.SessionIDs[0]] = true
	}
	if !sawAlternatives {
		t.Error("no slot recorded counterfactual alternatives under a tight budget")
	}
	if len(idsAtZero) < 2 {
		t.Error("index 0 always mapped to the same session: churn never exercised the ID mapping")
	}
}

// TestSimulateRecordingDoesNotPerturb: the recorded run must make the
// bit-identical decisions as the unrecorded run (observation must not change
// the experiment).
func TestSimulateRecordingDoesNotPerturb(t *testing.T) {
	w := tinyWorkload(t)
	plain, err := Simulate(w, SimConfig{BudgetMbps: 60})
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := Simulate(w, SimConfig{BudgetMbps: 60,
		Recorder:        obs.NewRecorder(obs.RecorderOptions{RingSize: 1}),
		CounterfactualK: 3, RegretRef: true, RegretResolution: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Outcomes, recorded.Outcomes) {
		t.Fatal("recording changed session outcomes")
	}
	if !reflect.DeepEqual(plain.SlotQuality, recorded.SlotQuality) {
		t.Fatal("recording changed the slot-quality series")
	}
}

// TestBlackoutCampaignRegretAttribution is the acceptance bar: on the chaos
// blackout campaign, the attributor must pin at least 95% of the campaign's
// total regret to concrete (session, slot, reason) rows. The audited policy
// is the Firefly baseline — the proposed algorithm matches the DP reference
// on these instances (zero regret to attribute); the attributor's job is
// explaining the policies that DO lose value.
func TestBlackoutCampaignRegretAttribution(t *testing.T) {
	w, err := Generate(Config{Shape: Steady, Sessions: 8,
		HorizonSlots: 600, Seed: 7,
		NetKinds: []nettrace.Kind{nettrace.Broadband},
		Net:      nettrace.Config{MinMbps: 30, MaxMbps: 100, Seconds: 60}})
	if err != nil {
		t.Fatal(err)
	}
	attr := obs.NewRegretAttributor(obs.RegretAttributorOptions{})
	_, err = Simulate(w, SimConfig{
		NewAllocator:     func() core.Allocator { return baseline.NewFirefly() },
		AllocName:        "firefly",
		BudgetMbps:       80, // tight enough that the budget constraint binds
		Recorder:         obs.NewRecorder(obs.RecorderOptions{RingSize: 1, Attributor: attr}),
		CounterfactualK:  3,
		RegretRef:        true,
		RegretResolution: 0.05,
		Chaos: &chaos.Profile{
			Name: "blackout-campaign",
			Seed: 99,
			Faults: []chaos.Fault{
				{Kind: chaos.FaultBlackout, StartSlot: 200, DurationSlots: 120},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := attr.Report()
	if rep.Slots != 600 || rep.RegretSlots != 600 {
		t.Fatalf("campaign recorded %d slots, %d with reference", rep.Slots, rep.RegretSlots)
	}
	if rep.TotalRegret <= 0 {
		t.Fatalf("campaign produced zero total regret (budget not tight enough): %+v", rep)
	}
	if rep.AttributedFraction < 0.95 {
		t.Fatalf("attributed %.1f%% of %.4f total regret, need >= 95%%:\n%s",
			100*rep.AttributedFraction, rep.TotalRegret, rep.Format())
	}
	if rep.Rows == 0 || len(rep.WorstRows) == 0 {
		t.Fatal("no attribution rows despite positive regret")
	}
	valid := map[string]bool{
		obs.ConstraintBudget: true, obs.ConstraintUserCap: true,
		obs.ConstraintUnprofitable: true, obs.ReasonChannelEstimate: true,
		obs.ReasonStructural: true,
	}
	ids := map[uint32]bool{}
	for _, s := range w.Sessions {
		ids[s.ID] = true
	}
	for _, row := range rep.WorstRows {
		if !valid[row.Reason] {
			t.Errorf("row with unknown reason %q", row.Reason)
		}
		if !ids[row.Session] {
			t.Errorf("row names session %d not in the workload", row.Session)
		}
	}
}

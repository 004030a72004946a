package load

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// degradeProfile browns out one shard: every session it owns sees its link
// capacity multiplied by factor while the window is open.
func degradeProfile(start, duration, shard int, factor float64) *chaos.Profile {
	return &chaos.Profile{
		Name: "test-shard-degrade",
		Seed: 42,
		Faults: []chaos.Fault{{
			Kind: chaos.FaultShardDegrade, StartSlot: start,
			DurationSlots: duration, Shard: shard, Factor: factor,
		}},
	}
}

// evacFixture is one SimulateFleet run with the evacuation loop armed: its
// own SLO monitor, placement recorder and health store (RawSlots sized to
// keep every slot of the 1200-slot horizon in the raw tier).
func evacFixture(t *testing.T, w *Workload, prof *chaos.Profile) (*FleetReport, *tsdb.Store, *obs.PlacementRecorder) {
	t.Helper()
	slo := obs.NewSLOMonitor(obs.SLOConfig{WindowSlots: 120, ShortWindowSlots: 30}, nil)
	rec := obs.NewPlacementRecorder(obs.PlacementRecorderOptions{RingSize: 256})
	health := tsdb.New(tsdb.Options{RawSlots: 1300})
	cfg := FleetSimConfig{
		Shards:   3,
		Recorder: rec,
		Health:   health,
		Evac: fleet.EvacConfig{
			Enabled:       true,
			WindowSlots:   60,
			EnterPressure: 0.30,
			ExitPressure:  0.10,
			CooldownSlots: 60,
			BatchSessions: 2,
		},
	}
	cfg.Sim.SLO = slo
	cfg.Sim.Chaos = prof
	rep, err := SimulateFleet(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep, health, rec
}

// TestFleetSLOPressureEvacuation is the PR's acceptance campaign for the
// ROADMAP "self-driving fleet" loop: a browned-out shard (capacity x0.05 for
// slots 300..900) must page its sessions, the coordinator must drain them
// off the shard from the ROLLING page-frac window, no session may move twice
// inside one cooldown window, the tail after the fault clears must recover
// to within 10% of the fault-free run, and the whole loop — health series
// included — must reproduce bit-for-bit per seed.
func TestFleetSLOPressureEvacuation(t *testing.T) {
	w := fleetWorkload(t)
	const (
		faultStart = 300
		faultEnd   = 900
		cooldown   = 60
	)

	baseline, _, _ := evacFixture(t, w, nil)
	got, health, rec := evacFixture(t, w, degradeProfile(faultStart, faultEnd-faultStart, 1, 0.05))

	// The fault-free run never pages, so the armed loop must never fire.
	if baseline.Evacuations != 0 || baseline.EvacBatches != 0 {
		t.Fatalf("fault-free run evacuated %d sessions in %d batches — loop fires without pressure",
			baseline.Evacuations, baseline.EvacBatches)
	}

	// Degrades, not drops: everyone completes.
	if got.Completed != got.Spawned || got.Failed != 0 {
		t.Fatalf("degrade run completed %d/%d (failed %d)", got.Completed, got.Spawned, got.Failed)
	}

	// The loop fired: shard 1's sessions were handed off under SLO pressure.
	if got.Evacuations == 0 || got.EvacBatches == 0 {
		t.Fatalf("no evacuations (%d) / batches (%d) despite a paging shard",
			got.Evacuations, got.EvacBatches)
	}
	if got.Shards[1].MigratedOut == 0 {
		t.Error("browned-out shard 1 migrated nothing out")
	}

	// Drained: the health plane's own series must show shard 1 reaching
	// zero sessions while the fault window is open.
	drained := false
	for _, snap := range health.Snapshot() {
		if snap.Name != "fleet_shard_sessions" || snap.Shard != 1 {
			continue
		}
		for _, p := range snap.Points {
			if p.Slot >= faultStart && p.Slot < faultEnd && p.Value == 0 {
				drained = true
				break
			}
		}
	}
	if !drained {
		t.Error("fleet_shard_sessions[1] never reached 0 inside the fault window — shard not drained")
	}

	// No oscillation: per session, consecutive SLO-pressure migrations are
	// at least one cooldown window apart.
	lastMove := map[uint32]int{}
	evacRecords := 0
	for _, r := range rec.Recent(256) {
		if r.Reason != obs.PlaceSLOPressure {
			continue
		}
		evacRecords++
		if prev, ok := lastMove[r.Session]; ok && r.Slot-prev < cooldown {
			t.Errorf("session %d evacuated twice inside one cooldown window (slots %d and %d)",
				r.Session, prev, r.Slot)
		}
		lastMove[r.Session] = r.Slot
	}
	if evacRecords != got.Evacuations {
		t.Errorf("%d slo_pressure records, report says %d evacuations", evacRecords, got.Evacuations)
	}

	// Tail recovery after the fault clears.
	tailFrom := faultEnd + 50
	tail := got.MeanSlotQuality(tailFrom, len(got.SlotQuality))
	want := baseline.MeanSlotQuality(tailFrom, len(baseline.SlotQuality))
	if tail < 0.90*want {
		t.Errorf("post-fault tail quality %.3f < 90%% of fault-free %.3f", tail, want)
	}

	// Bit-for-bit determinism: the report deep-equals and the health-plane
	// JSONL export is byte-identical across two identical runs.
	again, health2, _ := evacFixture(t, w, degradeProfile(faultStart, faultEnd-faultStart, 1, 0.05))
	if !reflect.DeepEqual(got, again) {
		t.Error("two identical evacuation runs differ — engine is not deterministic")
	}
	var a, b bytes.Buffer
	if err := health.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := health2.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("health-plane JSONL export differs across identical runs")
	}
}

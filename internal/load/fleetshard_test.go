package load

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fleet/coord"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// fleetCampaign is one run's control plane for the fork-join tests: SLO
// monitor, breaker and evacuation on, three coordinators, and a profile that
// exercises every path the slot's serial control step, the build loop, the
// shards' solves and the tally carry — a shard kill, a drain that rejoins, a
// brown-out that pages its sessions, a leader kill during the drain and a
// partition of its successor, over per-session capacity faults. The monitor
// and the breaker keep per-session state, so every run gets fresh ones.
func fleetCampaign(horizon, workers int) FleetSimConfig {
	bcfg := obs.DefaultBreakerConfig()
	bcfg.Levels = core.DefaultSystemParams().Levels
	cfg := FleetSimConfig{
		Shards:       4,
		Coordinators: 3,
		Coord:        coord.Config{LeaseSlots: 8},
		Evac:         fleet.EvacConfig{Enabled: true},
	}
	cfg.Sim = SimConfig{
		Workers:    workers,
		BudgetMbps: 4000,
		AllocName:  "proposed",
		SLO:        obs.NewSLOMonitor(obs.SLOConfig{WindowSlots: 120, ShortWindowSlots: 30}, nil),
		Breaker:    obs.NewBreaker(bcfg, nil),
		Chaos: &chaos.Profile{Name: "fleet-fork-join", Seed: 42, Faults: []chaos.Fault{
			{Kind: chaos.FaultBandwidth, StartSlot: horizon / 10, DurationSlots: horizon / 5, Factor: 0.5},
			{Kind: chaos.FaultShardDrain, StartSlot: horizon / 4, DurationSlots: horizon / 4, Shard: 1},
			{Kind: chaos.FaultCoordKill, StartSlot: horizon/4 + 2, DurationSlots: horizon / 5, Replica: 0},
			{Kind: chaos.FaultShardDegrade, StartSlot: horizon / 3, DurationSlots: horizon / 3, Shard: 2, Factor: 0.3},
			{Kind: chaos.FaultCoordPartition, StartSlot: 2 * horizon / 3, DurationSlots: horizon / 15, Replica: 1},
			{Kind: chaos.FaultShardKill, StartSlot: 3 * horizon / 4, Shard: 3},
		}},
	}
	return cfg
}

// TestFleetSimIdenticalAcrossWorkers: the fleet engine builds its sessions
// and solves its shards on up to Workers goroutines, each observing its own
// sessions in the shared SLO monitor and breaker, and everything
// order-sensitive happens in the serial tally after the join — so the
// report, the decision records and the placement records are the same at
// any worker count, including counts that do not divide the shards and
// counts above them. Run under -race -count=10 -cpu 1,2,4 (make race) it is
// also the check that a chunk's build or a shard's solve touches nothing
// another's does, and that a shard's built rows reach whoever solves it.
func TestFleetSimIdenticalAcrossWorkers(t *testing.T) {
	const horizon = 480
	w, err := Generate(Config{Shape: Poisson, Seed: 31, HorizonSlots: horizon, RatePerSec: 60, MeanHoldSec: 2})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		report     *FleetReport
		decisions  []obs.SlotRecord
		placements []obs.PlacementRecord
	}
	run := func(workers int) result {
		cfg := fleetCampaign(horizon, workers)
		cfg.Sim.Recorder = obs.NewRecorder(obs.RecorderOptions{RingSize: 4 * horizon})
		cfg.Sim.CounterfactualK = 2
		cfg.Recorder = obs.NewPlacementRecorder(obs.PlacementRecorderOptions{RingSize: 2048})
		rep, err := SimulateFleet(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return result{rep, cfg.Sim.Recorder.Recent(4 * horizon), cfg.Recorder.Recent(2048)}
	}
	base := obs.LeakSnapshot()
	serial := run(1)
	obs.AssertNoLeaks(t, base) // Workers 1 takes no goroutine

	rep := serial.report
	t.Logf("campaign: %d sessions, peak %d; migrations %d, evacuations %d, degraded %d, outage %d; %d decision and %d placement records",
		rep.Spawned, rep.PeakConcurrent, rep.Migrations, rep.Evacuations, rep.DegradedSlots, rep.OutageSlots,
		len(serial.decisions), len(serial.placements))
	if rep.Migrations == 0 || rep.Evacuations == 0 || rep.DegradedSlots == 0 || rep.OutageSlots == 0 {
		t.Fatalf("campaign too tame to tell orders apart: migrations %d, evacuations %d, degraded %d, outage %d",
			rep.Migrations, rep.Evacuations, rep.DegradedSlots, rep.OutageSlots)
	}
	if rep.Coord == nil || rep.Coord.Elections == 0 || !rep.Coord.Converged {
		t.Fatalf("coordinator faults did not bite: %+v", rep.Coord)
	}
	if len(serial.decisions) == 0 || len(serial.placements) == 0 {
		t.Fatal("recorders captured nothing")
	}
	for _, workers := range []int{2, 4, 7} {
		got := run(workers)
		if !reflect.DeepEqual(got.report, serial.report) {
			t.Errorf("workers %d: report differs from the serial engine's", workers)
			diffReports(t, "fleet workers", &serial.report.RunReport, &got.report.RunReport)
		}
		if !reflect.DeepEqual(got.decisions, serial.decisions) {
			t.Errorf("workers %d: decision records differ from the serial engine's", workers)
		}
		if !reflect.DeepEqual(got.placements, serial.placements) {
			t.Errorf("workers %d: placement records differ from the serial engine's", workers)
		}
	}
	obs.AssertNoLeaks(t, base) // and the parallel engine is goroutine-free at return
}

// TestFleetSimDeferredSetupEdges: placement keeps only the spec and the
// slot's build loop regenerates the session's inputs, so nothing may read
// them first. A replayed workload can hold what Generate never emits — a
// session that departs the slot it arrives (finish reads its accumulator
// before any build ran) and a one-slot session — and a shard can die the slot
// after it took an arrival (the migration's outage pass reads the trace and
// the predictor of a session that was never served on its new shard).
//
// The build loop's chunk countdown has two edges of its own: a shard that
// owns no session has no chunk, so nothing solves it, and a shard whose
// sessions are all blacked out solves an empty problem. Neither may leave a
// decision record or a demand from an earlier slot.
//
// The loop's tail refills the banks of the sessions set up before the slot
// that live on with their next bank empty, and the chunk that sets a
// session up runs its next prologues itself. Its edges: an arrival in the
// last slot, whose next prologue the horizon stops; a session prepped for a
// slot that it leaves right after; and a migration outage that starts in a
// slot whose pose and capacity a refill already drew.
func TestFleetSimDeferredSetupEdges(t *testing.T) {
	const horizon, killSlot = 40, 21
	lives := [][2]int{
		{0, horizon},
		{0, horizon},
		{5, 5},                     // departs the slot it arrives
		{5, 6},                     // one slot
		{12, 14},                   // prepped for slot 13 inline, departs at 14
		{killSlot - 3, horizon},    // prepped for the kill slot by the tail of
		{killSlot - 3, horizon},    // the slot before it: three, so one lands on
		{killSlot - 3, horizon},    // the doomed shard whatever the scorer prefers
		{killSlot - 1, horizon},    // arrive the slot before a shard dies: three,
		{killSlot - 1, horizon},    // so one lands on the doomed shard whatever
		{killSlot - 1, horizon},    // the scorer prefers
		{killSlot - 1, killSlot},   // one slot, ending on the kill
		{horizon - 1, horizon},     // set up by the last slot's step only
		{horizon - 1, horizon + 3}, // the same, living past the horizon
	}
	recorded, err := Generate(Config{Shape: Steady, Seed: 9, HorizonSlots: horizon, Sessions: len(lives)})
	if err != nil {
		t.Fatal(err)
	}
	for i, life := range lives {
		recorded.Sessions[i].ArriveSlot, recorded.Sessions[i].DepartSlot = life[0], life[1]
	}
	var file bytes.Buffer
	if err := recorded.WriteJSONL(&file); err != nil {
		t.Fatal(err)
	}
	w, err := ReadJSONL(&file)
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers, shard int) *FleetReport {
		cfg := FleetSimConfig{Shards: 2}
		cfg.Sim.Workers = workers
		cfg.Sim.Chaos = shardKillProfile(killSlot, shard)
		rep, err := SimulateFleet(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for shard := 0; shard < 2; shard++ {
		rep := run(1, shard)
		if rep.Completed != len(w.Sessions) || rep.Failed != 0 {
			t.Fatalf("kill shard %d: completed %d of %d, failed %d", shard, rep.Completed, len(w.Sessions), rep.Failed)
		}
		slots := make(map[uint32]int)
		for _, o := range rep.Outcomes {
			slots[o.ID] = o.Slots
		}
		for _, s := range w.Sessions {
			if lives := min(s.DepartSlot, horizon) - s.ArriveSlot; slots[s.ID] != lives {
				t.Errorf("kill shard %d: session %d served %d slots, lives %d", shard, s.ID, slots[s.ID], lives)
			}
		}
		if rep.Shards[shard].MigratedOut == 0 || rep.OutageSlots == 0 {
			t.Errorf("kill shard %d: nothing migrated (out %d, outage slots %d)", shard, rep.Shards[shard].MigratedOut, rep.OutageSlots)
		}
		if got := run(2, shard); !reflect.DeepEqual(got, rep) {
			t.Errorf("kill shard %d: two workers report differently from one", shard)
		}
	}

	// Six sessions over two shards. Shard 1 drains over [10, 20) and rejoins
	// empty, so it owns nothing from slot 10; shard 0 dies at 25 and its
	// sessions all move to shard 1, which owns only blacked-out sessions for
	// the two slots of their outage. Shard 0 owns nothing after that.
	const drainSlot, drainEnd, deadSlot = 10, 20, 25
	const outageEnd = deadSlot + 2
	w.Sessions = w.Sessions[:6]
	for i := range w.Sessions {
		// Staggered: the scorer spreads arrivals once it has seen demand.
		w.Sessions[i].ArriveSlot, w.Sessions[i].DepartSlot = i, horizon
	}
	edges := func(workers int) (*FleetReport, map[int]int, [2][]tsdb.SnapPoint) {
		cfg := FleetSimConfig{Shards: 2, Health: tsdb.New(tsdb.Options{})}
		cfg.Sim.Workers = workers
		cfg.Sim.Recorder = obs.NewRecorder(obs.RecorderOptions{RingSize: 4 * horizon})
		cfg.Sim.Chaos = &chaos.Profile{Name: "empty-shards", Seed: 1, Faults: []chaos.Fault{
			{Kind: chaos.FaultShardDrain, StartSlot: drainSlot, DurationSlots: drainEnd - drainSlot, Shard: 1},
			{Kind: chaos.FaultShardKill, StartSlot: deadSlot, Shard: 0},
		}}
		rep, err := SimulateFleet(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		records := make(map[int]int)
		for _, r := range cfg.Sim.Recorder.Recent(4 * horizon) {
			records[r.Slot]++
		}
		var demand [2][]tsdb.SnapPoint
		for _, sn := range cfg.Health.Snapshot() {
			if sn.Name == "fleet_shard_demand_mbps" {
				demand[sn.Shard] = sn.Points
			}
		}
		return rep, records, demand
	}
	rep, records, demand := edges(1)
	// Shard 1 serves from its first arrival's slot until the drain.
	served1 := slices.IndexFunc(demand[1], func(p tsdb.SnapPoint) bool { return p.Value > 0 })
	if served1 < 0 || served1 >= drainSlot {
		t.Fatalf("shard 1 served no one before its drain (first demand at slot %d)", served1)
	}
	for slot := 0; slot < horizon; slot++ {
		want := 1 // shard 0 alone before the kill, shard 1 alone after the outage
		switch {
		case slot >= served1 && slot < drainSlot:
			want = 2
		case slot >= deadSlot && slot < outageEnd:
			want = 0
		}
		if records[slot] != want {
			t.Errorf("slot %d: %d decision records, want %d", slot, records[slot], want)
		}
	}
	for shard, pts := range demand {
		if len(pts) != horizon {
			t.Fatalf("shard %d: %d demand samples, want %d", shard, len(pts), horizon)
		}
		for _, p := range pts {
			empty := shard == 1 && (p.Slot < int64(served1) || p.Slot >= drainSlot && p.Slot < outageEnd) ||
				shard == 0 && p.Slot >= deadSlot
			if served := p.Value > 0; served == empty {
				t.Errorf("shard %d slot %d: demand %v, want it zero exactly while the shard serves no one", shard, p.Slot, p.Value)
			}
		}
	}
	if rep.OutageSlots == 0 || rep.Shards[1].MigratedIn == 0 {
		t.Fatalf("the edges did not happen: outage slots %d, migrated into shard 1 %d", rep.OutageSlots, rep.Shards[1].MigratedIn)
	}
	if got, _, _ := edges(4); !reflect.DeepEqual(got, rep) {
		t.Error("empty and blacked-out shards: four workers report differently from one")
	}
}

// churnBenchConfig is the repository benchmark's fleet_churn workload
// (bench/workloads.go) rebuilt from this package: Poisson arrivals at 300/s
// holding 3 s — about 860 concurrent — over 4 shards and 3 coordinators with
// SLO, breaker and evacuation on, under examples/chaos/coordkill.json scaled
// to the horizon plus a brown-out. Unlike the benchmark it does not move
// arrivals out of the leaderless windows; the few placements refused there
// do not change what a slot costs.
func churnBenchConfig(tb testing.TB, horizon int) (*Workload, func() FleetSimConfig) {
	w, err := Generate(Config{Shape: Poisson, Seed: 11, HorizonSlots: horizon, RatePerSec: 300, MeanHoldSec: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return w, func() FleetSimConfig {
		cfg := fleetCampaign(horizon, 0)
		cfg.Sim.BudgetMbps = 16000
		cfg.Sim.SLO = obs.NewSLOMonitor(obs.DefaultSLOConfig(), nil)
		cfg.Sim.Chaos = &chaos.Profile{Name: "bench-coordkill", Seed: 42, Faults: []chaos.Fault{
			{Kind: chaos.FaultShardDrain, StartSlot: horizon / 4, DurationSlots: horizon / 4, Shard: 1},
			{Kind: chaos.FaultCoordKill, StartSlot: horizon/4 + 2, DurationSlots: horizon / 5, Replica: 0},
			{Kind: chaos.FaultCoordPartition, StartSlot: 2 * horizon / 3, DurationSlots: max(horizon/15, 12), Replica: 1},
			{Kind: chaos.FaultShardDegrade, StartSlot: horizon / 2, DurationSlots: horizon / 3, Shard: 2, Factor: 0.3},
		}}
		return cfg
	}
}

// sessionSlots is the workload's size in the benchmark's unit: one session
// alive for one slot.
func sessionSlots(w *Workload) int {
	total := 0
	for _, s := range w.Sessions {
		total += s.Slots()
	}
	return total
}

// BenchmarkSimulateFleetChurn is the working loop for the fleet engine: one
// pass of fleet_churn per iteration, reported as session-slots per second.
//
//	go test -run '^$' -bench FleetChurn -cpu 1,2 ./internal/load
func BenchmarkSimulateFleetChurn(b *testing.B) {
	w, mk := churnBenchConfig(b, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateFleet(w, mk()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sessionSlots(w))*float64(b.N)/b.Elapsed().Seconds(), "session-slots/s")
}

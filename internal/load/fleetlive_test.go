package load

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
)

func liveFleetWorkload(t *testing.T, sessions, horizon int) *Workload {
	t.Helper()
	w, err := Generate(Config{
		Shape:        Steady,
		Seed:         7,
		HorizonSlots: horizon,
		Sessions:     sessions,
		RampSlots:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRunLiveFleetShardKill: a real shard server dies mid-run; its clients
// redial through the coordinator's Redirect hook onto the survivor and
// every session still completes.
func TestRunLiveFleetShardKill(t *testing.T) {
	base := obs.LeakSnapshot()
	w := liveFleetWorkload(t, 4, 240)
	cfg := FleetLiveConfig{
		Shards: 2,
		Live: LiveConfig{
			SlotDuration: 5 * time.Millisecond,
			BudgetMbps:   300,
			Unshaped:     true,
			Chaos: &chaos.Profile{
				Name:   "live-kill",
				Seed:   7,
				Faults: []chaos.Fault{{Kind: chaos.FaultShardKill, StartSlot: 80, Shard: 0}},
			},
			Logf: t.Logf,
		},
	}
	rep, err := RunLiveFleet(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Spawned || rep.Failed != 0 {
		t.Errorf("completed %d/%d (failed %d) — shard kill dropped sessions",
			rep.Completed, rep.Spawned, rep.Failed)
	}
	if rep.Shards[0].KilledSlot != 80 {
		t.Errorf("shard 0 KilledSlot = %d, want 80", rep.Shards[0].KilledSlot)
	}
	if rep.Shards[0].MigratedOut == 0 {
		t.Error("killed shard handed off no sessions")
	}
	if rep.Migrations != rep.Shards[0].MigratedOut {
		t.Errorf("Migrations = %d, want %d", rep.Migrations, rep.Shards[0].MigratedOut)
	}
	if rep.Mode != "fleet-live" {
		t.Errorf("Mode = %q", rep.Mode)
	}
	obs.AssertNoLeaks(t, base)
}

// TestRunLiveFleetDrainResumes: a drain migrates real sessions through the
// full export/adopt/Welcome-resume path — the handoff counters on the
// shared registry prove state moved rather than restarted.
func TestRunLiveFleetDrainResumes(t *testing.T) {
	reg := obs.NewRegistry()
	w := liveFleetWorkload(t, 4, 240)
	rec := obs.NewPlacementRecorder(obs.PlacementRecorderOptions{RingSize: 32, Metrics: reg})
	cfg := FleetLiveConfig{
		Shards:   2,
		Recorder: rec,
		Live: LiveConfig{
			SlotDuration: 5 * time.Millisecond,
			BudgetMbps:   300,
			Unshaped:     true,
			Metrics:      reg,
			Chaos: &chaos.Profile{
				Name:   "live-drain",
				Seed:   7,
				Faults: []chaos.Fault{{Kind: chaos.FaultShardDrain, StartSlot: 80, Shard: 1}},
			},
			Logf: t.Logf,
		},
	}
	rep, err := RunLiveFleet(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Spawned || rep.Failed != 0 {
		t.Errorf("completed %d/%d (failed %d)", rep.Completed, rep.Spawned, rep.Failed)
	}
	if rep.Shards[1].DrainSlot != 80 {
		t.Errorf("shard 1 DrainSlot = %d, want 80", rep.Shards[1].DrainSlot)
	}
	if rep.Shards[1].MigratedOut == 0 {
		t.Fatal("drained shard migrated nothing")
	}
	out := reg.Counter("collabvr_server_sessions_handoff_out_total").Value()
	in := reg.Counter("collabvr_server_sessions_handoff_in_total").Value()
	if out == 0 || out != in {
		t.Errorf("handoff counters out=%d in=%d, want equal and nonzero", out, in)
	}
	if got := reg.Counter("collabvr_fleet_migrations_total").Value(); got != uint64(rep.Migrations) {
		t.Errorf("fleet migrations counter %d, report %d", got, rep.Migrations)
	}
	drains := 0
	for _, r := range rec.Recent(32) {
		if r.Reason == obs.PlaceShardDrain {
			drains++
		}
	}
	if drains != rep.Migrations {
		t.Errorf("%d drain placement records, %d migrations", drains, rep.Migrations)
	}
}

// TestFindFleetCapacity: both searches run against a synthetic
// budget-proportional knee and the verdicts land where the model says.
func TestFindFleetCapacity(t *testing.T) {
	probe := func(n, shards int, budget float64) (float64, error) {
		// Knee model: every 10 Mbps of budget carries one session,
		// regardless of sharding — pooling efficiency exactly 1.
		if float64(n) > budget/10 {
			return 0.5, nil
		}
		return 0, nil
	}
	res, err := FindFleetCapacity(1, 64, 0.01, 3, 300, probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.MaxSessions != 30 {
		t.Errorf("fleet capacity = %d, want 30", res.Fleet.MaxSessions)
	}
	if res.PerShard.MaxSessions != 10 {
		t.Errorf("per-shard capacity = %d, want 10", res.PerShard.MaxSessions)
	}
	if eff := res.poolingEfficiency(); eff != 1.0 {
		t.Errorf("pooling efficiency = %v, want 1.0", eff)
	}
	text := res.Format()
	for _, want := range []string{"fleet total", "per-shard knee", "pooling efficiency"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format missing %q:\n%s", want, text)
		}
	}

	// A failing floor bottoms out both searches without error.
	res, err = FindFleetCapacity(1, 8, 0.01, 2, 0.1, probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.MaxSessions != 0 || res.PerShard.MaxSessions != 0 {
		t.Errorf("starved fleet found capacity %d/%d, want 0/0",
			res.Fleet.MaxSessions, res.PerShard.MaxSessions)
	}
	if res.poolingEfficiency() != 0 {
		t.Errorf("pooling efficiency %v for starved fleet, want 0", res.poolingEfficiency())
	}
}

// TestFleetSimCapacityProbe wires FindFleetCapacity to the deterministic
// fleet engine end to end, at toy scale: the search must complete and find
// at least one sustainable session at a generous budget.
func TestFleetSimCapacityProbe(t *testing.T) {
	probe := func(n, shards int, budget float64) (float64, error) {
		w, err := Generate(Config{
			Shape:        Steady,
			Seed:         5,
			HorizonSlots: 120,
			Sessions:     n,
		})
		if err != nil {
			return 0, err
		}
		cfg := FleetSimConfig{Shards: shards}
		cfg.Sim.BudgetMbps = budget
		rep, err := SimulateFleet(w, cfg)
		if err != nil {
			return 0, err
		}
		return rep.AggregateMissRate(), nil
	}
	res, err := FindFleetCapacity(1, 8, 0.05, 2, 400, probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.MaxSessions < 1 {
		t.Errorf("fleet capacity %d, want >= 1", res.Fleet.MaxSessions)
	}
	if res.PerShard.MaxSessions < 1 {
		t.Errorf("per-shard capacity %d, want >= 1", res.PerShard.MaxSessions)
	}
}

// TestRunLiveFleetCoordLeaderKill: the replicated coordinator under the
// live runner — the chaos schedule kills the lease-holding leader mid-run,
// the survivors elect on the real slot clock, and every session still
// completes; the report carries the leadership history.
func TestRunLiveFleetCoordLeaderKill(t *testing.T) {
	base := obs.LeakSnapshot()
	w := liveFleetWorkload(t, 4, 240)
	cfg := FleetLiveConfig{
		Shards:       2,
		Coordinators: 3,
		Live: LiveConfig{
			SlotDuration: 5 * time.Millisecond,
			BudgetMbps:   300,
			Unshaped:     true,
			Chaos: &chaos.Profile{
				Name:   "live-coord-kill",
				Seed:   7,
				Faults: []chaos.Fault{{Kind: chaos.FaultCoordKill, StartSlot: 80, Replica: 0}},
			},
			Logf: t.Logf,
		},
	}
	rep, err := RunLiveFleet(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Spawned || rep.Failed != 0 {
		t.Errorf("completed %d/%d (failed %d) — coordinator failover dropped sessions",
			rep.Completed, rep.Spawned, rep.Failed)
	}
	co := rep.Coord
	if co == nil {
		t.Fatal("no coord outcome in the live report")
	}
	if co.Replicas != 3 || co.Elections < 1 || co.Term < 2 {
		t.Errorf("coord outcome %+v, want 3 replicas and an election past bootstrap", co)
	}
	if co.LeaderlessSlots == 0 {
		t.Error("leader kill cost no leaderless slots")
	}
	if !co.Converged {
		t.Error("replicas did not converge")
	}
	obs.AssertNoLeaks(t, base)

	// A replica outside the cluster is a config error, like shard range.
	bad := cfg
	bad.Live.Chaos = &chaos.Profile{
		Name:   "live-coord-kill-oob",
		Seed:   7,
		Faults: []chaos.Fault{{Kind: chaos.FaultCoordKill, StartSlot: 80, Replica: 5}},
	}
	if _, err := RunLiveFleet(w, bad); err == nil {
		t.Error("out-of-range coordinator replica fault accepted")
	}
}

// TestRunLiveFleetBoundedDrainEnds: the live runner ends a bounded
// shard_drain like the virtual-time engine does — after start + duration the
// shard takes arrivals and a budget share again (before the control planes
// were merged the live runner never ended a drain).
func TestRunLiveFleetBoundedDrainEnds(t *testing.T) {
	const drainStart, drainSlots = 40, 40
	w, err := Generate(Config{Shape: Poisson, Seed: 3, HorizonSlots: 240, RatePerSec: 8, MeanHoldSec: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	late := 0
	for _, s := range w.Sessions {
		if s.ArriveSlot > drainStart+drainSlots {
			late++
		}
	}
	if late < 4 {
		t.Fatalf("workload has only %d arrivals after the drain window", late)
	}
	rec := obs.NewPlacementRecorder(obs.PlacementRecorderOptions{RingSize: 256})
	prof := &chaos.Profile{Name: "live-bounded-drain", Seed: 7, Faults: []chaos.Fault{
		{Kind: chaos.FaultShardDrain, StartSlot: drainStart, DurationSlots: drainSlots, Shard: 1},
	}}
	rep, err := RunLiveFleet(w, FleetLiveConfig{
		Shards:   2,
		Recorder: rec,
		Live: LiveConfig{
			SlotDuration: 5 * time.Millisecond,
			BudgetMbps:   300,
			Unshaped:     true,
			Chaos:        prof,
			Logf:         t.Logf,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlacementsFailed != 0 {
		t.Errorf("%d placements refused", rep.PlacementsFailed)
	}
	// The router scores accepting shards only, so the arrival records show
	// when shard 1 was a candidate: never inside the window, always after it.
	after := 0
	for _, r := range rec.Recent(256) {
		if r.Reason != obs.PlaceArrival || r.Slot < drainStart {
			continue
		}
		candidate := false
		for _, sc := range r.Scores {
			candidate = candidate || sc.Shard == 1
		}
		draining := r.Slot < drainStart+drainSlots
		if candidate == draining {
			t.Errorf("slot %d: shard 1 a placement candidate = %v while draining = %v", r.Slot, candidate, draining)
		}
		if !draining {
			after++
		}
	}
	if after == 0 {
		t.Errorf("no arrival recorded after the drain ended at slot %d (%d arrived later)", drainStart+drainSlots, late)
	}
	if s1 := rep.Shards[1]; s1.DrainSlot != drainStart || s1.FinalBudgetMbps <= 0 {
		t.Errorf("shard 1 outcome %+v, want a drain at slot %d and a budget share at the horizon", s1, drainStart)
	}

	// The virtual-time engine on the same workload and profile agrees.
	scfg := FleetSimConfig{Shards: 2}
	scfg.Sim.Chaos = prof
	sim, err := SimulateFleet(w, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1 := sim.Shards[1]; s1.DrainSlot != drainStart || s1.FinalBudgetMbps <= 0 {
		t.Errorf("sim shard 1 outcome %+v, want the same drain and a budget share", s1)
	}
}

// TestFleetLeaderlessSlotsCountedAlike: a slot the cluster cannot commit in
// is leaderless at any replica count, in both engines (the live runner used
// to skip the count at one replica).
func TestFleetLeaderlessSlotsCountedAlike(t *testing.T) {
	const down = 20
	w := liveFleetWorkload(t, 4, 160)
	prof := &chaos.Profile{Name: "single-replica-restart", Seed: 7, Faults: []chaos.Fault{
		{Kind: chaos.FaultCoordKill, StartSlot: 60, DurationSlots: down, Replica: 0},
	}}
	scfg := FleetSimConfig{Shards: 2}
	scfg.Sim.Chaos = prof
	sim, err := SimulateFleet(w, scfg)
	if err != nil {
		t.Fatal(err)
	}
	live, err := RunLiveFleet(w, FleetLiveConfig{
		Shards: 2,
		Live: LiveConfig{
			SlotDuration: 5 * time.Millisecond,
			BudgetMbps:   300,
			Unshaped:     true,
			Chaos:        prof,
			Logf:         t.Logf,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]*FleetReport{"sim": sim, "live": live} {
		co := rep.Coord
		if co == nil {
			t.Fatalf("%s: no coord outcome", name)
		}
		if co.Replicas != 1 || co.LeaderlessSlots != down || co.Term != 0 || !co.Converged {
			t.Errorf("%s: coord outcome %+v, want 1 replica leaderless for exactly the %d slots it was down", name, co, down)
		}
		if rep.PlacementsFailed != 0 {
			t.Errorf("%s: %d placements refused (every session arrives before the kill)", name, rep.PlacementsFailed)
		}
	}
}

package load

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fleet/coord"
	"repro/internal/obs"
)

// TestFleetCoordLeaderKillMidMigration is the PR's acceptance campaign:
// shard 1 is killed the same slot the coordinator leader dies, so every
// export is stuck with its ownership flip uncommittable — the exact
// "leader killed between export and flip" window. The survivors must
// elect, replay the queued flips, and finish the run with no session
// dropped, ownership converged to exactly one shard per session on every
// replica, each blackout bounded by the election timeout plus the
// migration outage, tail quality within 10% of the fault-free run, and
// the whole thing bit-identical per seed.
func TestFleetCoordLeaderKillMidMigration(t *testing.T) {
	baseGoroutines := obs.LeakSnapshot()
	w := fleetWorkload(t)
	const (
		killSlot   = 600
		leaseSlots = 8
		outage     = 2
	)

	base := FleetSimConfig{
		Shards:               3,
		Coordinators:         3,
		Coord:                coord.Config{LeaseSlots: leaseSlots},
		MigrationOutageSlots: outage,
	}
	baseline, err := SimulateFleet(w, base)
	if err != nil {
		t.Fatal(err)
	}

	faulted := base
	faulted.Sim.Chaos = &chaos.Profile{
		Name: "coord-leader-kill-mid-migration",
		Seed: 42,
		Faults: []chaos.Fault{
			{Kind: chaos.FaultShardKill, StartSlot: killSlot, Shard: 1},
			{Kind: chaos.FaultCoordKill, StartSlot: killSlot, Replica: 0},
		},
	}
	got, err := SimulateFleet(w, faulted)
	if err != nil {
		t.Fatal(err)
	}

	// No session dropped: every spawned session completes with outcomes.
	if got.Completed != got.Spawned || got.Failed != 0 {
		t.Fatalf("completed %d/%d (failed %d) — sessions were dropped",
			got.Completed, got.Spawned, got.Failed)
	}

	// The kill found the coordinator leaderless, so flips were queued: the
	// log rejected proposals during the outage, an election happened, and
	// the dead shard's sessions still all moved.
	co := got.Coord
	if co == nil {
		t.Fatal("no coord outcome in the report")
	}
	if co.Elections < 1 || co.Term < 2 {
		t.Fatalf("elections/term = %d/%d, want an election past bootstrap", co.Elections, co.Term)
	}
	if co.Rejected == 0 {
		t.Error("no rejected proposals — the kill never raced the flips")
	}
	if co.LeaderlessSlots == 0 || co.LeaderlessSlots > leaseSlots {
		t.Errorf("leaderless for %d slots, want within (0, %d] (the lease is the election timeout)",
			co.LeaderlessSlots, leaseSlots)
	}
	// Ownership converged to exactly one shard per session on every alive
	// replica — no split brain, no double owner.
	if !co.Converged {
		t.Error("replicas did not converge to an identical owner map")
	}
	s1 := got.Shards[1]
	if s1.MigratedOut == 0 {
		t.Fatal("dead shard migrated nothing out")
	}
	if adopted := got.Shards[0].MigratedIn + got.Shards[2].MigratedIn; adopted != s1.MigratedOut {
		t.Errorf("survivors adopted %d, shard 1 exported %d", adopted, s1.MigratedOut)
	}

	// Blackout bound: each migrated session is dark for at most the
	// election timeout (the dead leader's lease) plus the migration outage.
	if got.OutageSlots == 0 {
		t.Error("no outage slots charged")
	}
	if max := s1.MigratedOut * (leaseSlots + outage); got.OutageSlots > max {
		t.Errorf("outage session-slots %d > bound %d (migrated %d × (lease %d + outage %d))",
			got.OutageSlots, max, s1.MigratedOut, leaseSlots, outage)
	}

	// Tail quality: once the election and the flips clear, the survivors
	// carry the load within 10% of the fault-free run.
	tailFrom := killSlot + 100
	tail := got.MeanSlotQuality(tailFrom, len(got.SlotQuality))
	want := baseline.MeanSlotQuality(tailFrom, len(baseline.SlotQuality))
	if tail < 0.90*want {
		t.Errorf("post-failover tail quality %.3f < 90%% of fault-free %.3f", tail, want)
	}

	// Bit-identical per seed: elections, flip replay order and all.
	again, err := SimulateFleet(w, faulted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Error("two identical leader-kill runs differ — the failover is not deterministic")
	}
	obs.AssertNoLeaks(t, baseGoroutines)
}

// TestFleetSimSingleReplicaByteIdentical pins the zero-cost-default
// guarantee without a second code path to compare against: nothing the
// fleet decides depends on the replica count while no replica fails, so the
// single-replica coordinator (the default) must produce a report
// byte-identical — same placements, same migrations, same QoE, down to
// every float — to a fault-free 3-replica run of the same faulted golden
// campaign, once the coordinator's own accounting is set aside.
func TestFleetSimSingleReplicaByteIdentical(t *testing.T) {
	w := fleetWorkload(t)
	mk := func(coordinators int) *FleetReport {
		t.Helper()
		cfg := FleetSimConfig{Shards: 3, Coordinators: coordinators}
		cfg.Sim.Chaos = shardKillProfile(600, 1)
		rep, err := SimulateFleet(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	single := mk(0) // the default: zero or less means one replica
	replicated := mk(3)

	co := single.Coord
	if co == nil || replicated.Coord == nil {
		t.Fatal("no coord outcome in the report")
	}
	// Single-replica mode never elects, never rejects, never leaves term 0
	// — so the fencing epoch never perturbs a handoff token.
	if co.Replicas != 1 || co.Term != 0 || co.Elections != 0 || co.Rejected != 0 || co.LeaderlessSlots != 0 {
		t.Fatalf("single-replica outcome %+v, want term 0 and no elections/rejections", co)
	}
	if !co.Converged {
		t.Error("a single replica cannot disagree with itself")
	}
	if co.Commits == 0 {
		t.Error("no commits — ownership mutations bypassed the cluster")
	}
	if rc := replicated.Coord; rc.Replicas != 3 || rc.Commits != co.Commits || rc.Elections != 0 {
		t.Errorf("fault-free 3-replica outcome %+v, want the single replica's %d commits and no election", rc, co.Commits)
	}
	single.Coord, replicated.Coord = nil, nil
	if !reflect.DeepEqual(single, replicated) {
		t.Error("single-replica run is not byte-identical to the fault-free 3-replica run")
	}
}

// TestFleetSimCoordFaultValidation: a profile naming a replica outside the
// cluster is a config error, mirroring the shard-range check, and both
// engines check it against the replica count they will run: Coordinators
// when set, else Coord.Replicas, else one.
func TestFleetSimCoordFaultValidation(t *testing.T) {
	w := fleetWorkload(t)
	kill := func(replica int) *chaos.Profile {
		return &chaos.Profile{
			Name:   "coord-kill",
			Seed:   1,
			Faults: []chaos.Fault{{Kind: chaos.FaultCoordKill, StartSlot: 10, Replica: replica}},
		}
	}
	for _, tc := range []struct {
		name         string
		coordinators int
		coord        coord.Config
		replica      int // the replica the profile kills
		runs         int // the replica count the engines run
	}{
		{"replica 3 of a 3-replica cluster", 3, coord.Config{}, 3, 3},
		{"zero or less means one replica", -1, coord.Config{}, 3, 1},
		{"Coord.Replicas alone is the count", 0, coord.Config{Replicas: 3}, 2, 3},
		{"Coordinators wins over Coord.Replicas", 2, coord.Config{Replicas: 3}, 2, 2},
	} {
		refused := tc.replica >= tc.runs
		cfg := FleetSimConfig{Shards: 3, Coordinators: tc.coordinators, Coord: tc.coord}
		cfg.Sim.Chaos = kill(tc.replica)
		rep, err := SimulateFleet(w, cfg)
		switch {
		case refused && err == nil:
			t.Errorf("%s: replica %d fault accepted by the sim engine", tc.name, tc.replica)
		case !refused && err != nil:
			t.Errorf("%s: sim engine refused the profile: %v", tc.name, err)
		case !refused && rep.Coord.Replicas != tc.runs:
			t.Errorf("%s: sim engine ran %d replicas, want %d", tc.name, rep.Coord.Replicas, tc.runs)
		}
		// The live engine checks before it builds anything, so a refused
		// profile costs no sockets; its message names the count it checked.
		if refused {
			live := FleetLiveConfig{Shards: 3, Coordinators: tc.coordinators}
			live.Live.Chaos = kill(tc.replica)
			_, err := RunLiveFleet(w, live)
			if want := fmt.Sprintf("the cluster has %d", tc.runs); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: live engine returned %v, want an error saying %q", tc.name, err, want)
			}
		}
	}
}

// TestFleetSimCoordQuorumLossRecovers runs the shipped example profile's
// shape in miniature: a permanent replica kill followed by a partition of
// a second replica drops the cluster below quorum for the window; no
// session is dropped, departures queue and replay, and the run converges.
func TestFleetSimCoordQuorumLossRecovers(t *testing.T) {
	w := fleetWorkload(t)
	cfg := FleetSimConfig{
		Shards:       3,
		Coordinators: 3,
		Coord:        coord.Config{LeaseSlots: 4},
	}
	cfg.Sim.Chaos = &chaos.Profile{
		Name: "coord-quorum-loss",
		Seed: 7,
		Faults: []chaos.Fault{
			{Kind: chaos.FaultCoordKill, StartSlot: 200, Replica: 0},
			{Kind: chaos.FaultCoordPartition, StartSlot: 500, DurationSlots: 60, Replica: 1},
		},
	}
	rep, err := SimulateFleet(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Spawned {
		t.Fatalf("completed %d/%d", rep.Completed, rep.Spawned)
	}
	co := rep.Coord
	if co == nil {
		t.Fatal("no coord outcome")
	}
	// The partition of the post-failover leader leaves one reachable
	// replica — below quorum — until the window heals, then a second
	// election recovers.
	if co.Elections < 2 {
		t.Errorf("elections = %d, want >= 2 (kill, then partition heal)", co.Elections)
	}
	if co.LeaderlessSlots < 60 {
		t.Errorf("leaderless slots = %d, want >= the 60-slot quorum-loss window", co.LeaderlessSlots)
	}
	if !co.Converged {
		t.Error("replicas did not converge after the heal")
	}
}

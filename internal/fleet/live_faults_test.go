package fleet

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/fleet/coord"
)

// TestLiveApplyFaultsEndsBoundedDrain: the live coordinator runs the chaos
// schedule through the same Controller the virtual-time engine does, so a
// bounded shard_drain ends — the shard takes placements and a budget share
// again after start + duration — and a coordinator kill with a duration
// restarts the replica. No client connects: ownership is the whole test.
func TestLiveApplyFaultsEndsBoundedDrain(t *testing.T) {
	l := newTestLive(t, nil, nil, nil, nil)
	defer l.Close()
	prof := &chaos.Profile{Name: "bounded-drain", Seed: 1, Faults: []chaos.Fault{
		{Kind: chaos.FaultShardDrain, StartSlot: 10, DurationSlots: 10, Shard: 1},
		{Kind: chaos.FaultCoordKill, StartSlot: 12, DurationSlots: 3, Replica: 0},
	}}
	placedOn := func(slot int, id uint32) int {
		t.Helper()
		shard, err := l.Place(SessionInfo{ID: id})
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		return shard
	}
	next := uint32(1)
	for slot := 0; slot < 30; slot++ {
		l.ApplyFaults(prof, slot)
		switch {
		case slot >= 12 && slot < 15:
			// The single replica is down: placements fail fast, and every
			// such slot is counted leaderless.
			if _, err := l.Place(SessionInfo{ID: 999}); !coord.Unavailable(err) {
				t.Fatalf("slot %d: place with the coordinator down: %v, want unavailable", slot, err)
			}
		case slot >= 10 && slot < 20:
			if shard := placedOn(slot, next); shard != 0 {
				t.Fatalf("slot %d: placed on draining shard %d", slot, shard)
			}
			next++
		case slot == 20:
			// Shard 1 is back and empty, so the least-loaded router must
			// prefer it now.
			if shard := placedOn(slot, next); shard != 1 {
				t.Fatalf("slot %d: placed on shard %d, want the rejoined shard 1", slot, shard)
			}
			next++
		}
		l.Tick(slot)
	}
	o := l.Outcome()
	s1 := o.Shards[1]
	if s1.DrainSlot != 10 || s1.FinalBudgetMbps <= 0 {
		t.Errorf("shard 1 outcome %+v, want a drain at slot 10 and a budget share after it ended", s1)
	}
	if b := l.servers[1].Budget(); b != s1.FinalBudgetMbps {
		t.Errorf("shard 1's server runs on %v Mbps, the committed share is %v", b, s1.FinalBudgetMbps)
	}
	if got := o.Coord.LeaderlessSlots; got != 3 {
		t.Errorf("leaderless slots = %d, want the 3 the single replica was down", got)
	}
	if o.Coord.Replicas != 1 || !o.Coord.Converged {
		t.Errorf("coord outcome %+v", o.Coord)
	}
}

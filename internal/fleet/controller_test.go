package fleet

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fleet/coord"
	"repro/internal/obs"
)

// The Controller has no lock, socket or clock, so these tests step it slot
// by slot the way an engine does and assert on the state machine itself —
// nothing here sleeps, dials or depends on the wall clock.

func testController(replicas, lease int, rec *obs.PlacementRecorder) *Controller {
	return NewController(ControllerConfig{
		Shards: 3, Zones: 3, GlobalBudgetMbps: 900,
		Recorder:          rec,
		Rebalance:         RebalanceConfig{EverySlots: 8},
		Coord:             coord.Config{Replicas: replicas, LeaseSlots: lease},
		SessionDemandMbps: 30,
	})
}

// assertSingleAliveOwner checks the fleet's core invariant: every live
// session is bound to exactly one shard, that shard is alive, and the view's
// tallies account for exactly the live sessions.
func assertSingleAliveOwner(t *testing.T, c *Controller, live []uint32) {
	t.Helper()
	bound := 0
	c.eachOwner(func(uint32, int) { bound++ })
	if bound != len(live) {
		t.Errorf("%d bindings for %d live sessions", bound, len(live))
	}
	view := c.States()
	perShard := make([]int, len(view))
	for _, id := range live {
		shard, ok := c.owner(id)
		if !ok {
			t.Errorf("session %d has no owner", id)
			continue
		}
		if !view[shard].Alive {
			t.Errorf("session %d is owned by dead shard %d", id, shard)
		}
		perShard[shard]++
	}
	for i, st := range view {
		if st.Sessions != perShard[i] {
			t.Errorf("shard %d: view counts %d sessions, the owner map %d", i, st.Sessions, perShard[i])
		}
	}
}

// TestControllerLeaderAndShardKilledSameSlot scripts the "leader killed
// between export and flip" window on a bare Controller: twelve sessions over
// three shards, then the lease holder and shard 1 die in the same slot. The
// flips must stay pending for the lease — nothing changes owner, nothing is
// double-owned — and commit in arrival order the first slot the survivors
// have elected; a departure queued in the window replays; the replicas
// converge.
func TestControllerLeaderAndShardKilledSameSlot(t *testing.T) {
	const (
		lease    = 4
		killSlot = 10
	)
	rec := obs.NewPlacementRecorder(obs.PlacementRecorderOptions{RingSize: 64})
	c := testController(3, lease, rec)
	prof := &chaos.Profile{Name: "leader-and-shard", Seed: 1, Faults: []chaos.Fault{
		{Kind: chaos.FaultShardKill, StartSlot: killSlot, Shard: 1},
		{Kind: chaos.FaultCoordKill, StartSlot: killSlot, Replica: 0},
	}}
	if err := CheckProfile(prof, 3, 3); err != nil {
		t.Fatal(err)
	}

	var live []uint32 // arrival order
	c.Tick(0)
	for id := uint32(1); id <= 12; id++ {
		if _, err := c.Place(SessionInfo{ID: id, Zone: int(id) % 3}); err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	for _, st := range c.States() {
		if st.Sessions != 4 {
			t.Fatalf("least-loaded placement left shard %d with %d of 12 sessions", st.ID, st.Sessions)
		}
	}

	var pending, doomed []uint32 // pending flips; the sessions shard 1 owned
	var leaderless, committedAt int
	for slot := 1; slot <= killSlot+lease+4; slot++ {
		events := c.Faults(prof, slot)
		c.Tick(slot)
		for _, ev := range events {
			if ev.Kind != ShardKilled || !c.Apply(ev) {
				t.Fatalf("slot %d: unexpected shard event %+v", slot, ev)
			}
			for _, id := range live {
				if shard, _ := c.owner(id); shard != ev.Shard {
					continue
				}
				doomed = append(doomed, id)
				if to, isPending := c.Reroute(SessionInfo{ID: id, Zone: int(id) % 3}, ev.Shard, false); to >= 0 || !isPending {
					t.Fatalf("session %d rerouted to %d (pending %v) under a dead leader", id, to, isPending)
				}
				pending = append(pending, id)
			}
			if c.Resplit() != nil {
				t.Error("budget split committed without a leader")
			}
		}
		if slot == killSlot {
			if len(pending) != 4 {
				t.Fatalf("%d flips pending after the kill, want shard 1's 4 sessions", len(pending))
			}
			// A departure inside the window is rejected by the log and queued.
			gone := live[0]
			c.Forget(gone)
			live = live[1:]
			if len(c.pendingForgets) != 1 {
				t.Fatalf("%d departures queued in the leaderless window, want 1", len(c.pendingForgets))
			}
			if _, ok := c.owner(gone); !ok {
				t.Error("queued departure already dropped its binding")
			}
			if _, err := c.Place(SessionInfo{ID: 99}); !coord.Unavailable(err) {
				t.Errorf("arrival under a dead leader: err = %v, want unavailable", err)
			}
		}
		observeAll(c, live, slot)
		if !c.available() {
			leaderless++
			for _, id := range pending {
				if shard, _ := c.owner(id); shard != 1 {
					t.Fatalf("slot %d: pending session %d changed owner to %d with no leader", slot, id, shard)
				}
			}
			continue
		}
		// A leader is back: pending flips commit, in arrival order.
		rerouted := false
		for _, id := range pending {
			to, isPending := c.Reroute(SessionInfo{ID: id, Zone: int(id) % 3}, 1, false)
			if to < 0 || isPending {
				t.Fatalf("slot %d: session %d still not rerouted (to %d, pending %v)", slot, id, to, isPending)
			}
			rerouted = true
		}
		if rerouted {
			pending, committedAt = nil, slot
			if c.Resplit() == nil {
				t.Error("budget split rejected with a leader elected")
			}
		}
	}

	if leaderless == 0 || leaderless > lease {
		t.Errorf("leaderless for %d slots, want within (0, %d]", leaderless, lease)
	}
	if committedAt != killSlot+leaderless {
		t.Errorf("flips committed at slot %d, want the first slot with a leader, %d", committedAt, killSlot+leaderless)
	}
	var order []uint32
	for _, r := range rec.Recent(64) {
		if r.Reason == obs.PlaceShardKill {
			if r.Slot != committedAt || r.From != 1 || r.Chosen == 1 || r.Chosen < 0 {
				t.Errorf("kill record %+v, want a move off shard 1 at slot %d", r, committedAt)
			}
			order = append(order, r.Session)
		}
	}
	if !slices.Equal(order, doomed) {
		t.Errorf("flips committed in order %v, want arrival order %v", order, doomed)
	}
	if len(c.pendingForgets) != 0 {
		t.Errorf("%d departures still queued after the election", len(c.pendingForgets))
	}
	assertSingleAliveOwner(t, c, live)

	o := c.Outcome()
	if co := o.Coord; !co.Converged || co.Elections != 1 || co.Term != 2 || co.LeaderlessSlots != leaderless || co.Rejected == 0 {
		t.Errorf("coord outcome %+v, want one election to term 2, %d leaderless slots, rejections, converged", co, leaderless)
	}
	if s1 := o.Shards[1]; s1.KilledSlot != killSlot || s1.MigratedOut != 4 || s1.FinalBudgetMbps != 0 {
		t.Errorf("shard 1 outcome %+v, want killed at %d, 4 out, no budget", s1, killSlot)
	}
	if in := o.Shards[0].MigratedIn + o.Shards[2].MigratedIn; in != 4 || o.Migrations != 4 {
		t.Errorf("survivors adopted %d, migrations %d, want 4 and 4", in, o.Migrations)
	}
	if sum := o.Shards[0].FinalBudgetMbps + o.Shards[2].FinalBudgetMbps; sum < 900-1e-6 || sum > 900+1e-6 {
		t.Errorf("survivors hold %v Mbps of 900", sum)
	}
}

// A scriptSlot is what happens to the fleet in one slot, engine-agnostic.
type scriptSlot struct {
	arrive, depart []uint32
}

// controlScript is a small campaign with every control-plane event: arrivals
// and departures around a bounded drain, a shard kill that coincides with a
// leader kill, and a second election after the restarted replica is
// partitioned. No arrival lands in the slot an election happens: an engine
// that places before its tick and one that places after it would refuse
// different arrivals there, by construction.
func controlScript() (*chaos.Profile, map[int]scriptSlot, int) {
	prof := &chaos.Profile{Name: "order-differential", Seed: 3, Faults: []chaos.Fault{
		{Kind: chaos.FaultShardDrain, StartSlot: 6, DurationSlots: 10, Shard: 2},
		{Kind: chaos.FaultShardKill, StartSlot: 24, Shard: 0},
		{Kind: chaos.FaultCoordKill, StartSlot: 24, DurationSlots: 12, Replica: 0},
		{Kind: chaos.FaultCoordPartition, StartSlot: 44, DurationSlots: 6, Replica: 1},
	}}
	script := map[int]scriptSlot{
		1:  {arrive: []uint32{1, 2, 3, 4, 5, 6}},
		3:  {arrive: []uint32{7, 8}},
		8:  {arrive: []uint32{9, 10}, depart: []uint32{2}},
		18: {arrive: []uint32{11, 12, 13}},
		25: {depart: []uint32{5, 9}}, // queued: the leader died at 24
		34: {arrive: []uint32{14, 15}, depart: []uint32{1}},
		45: {depart: []uint32{7}}, // queued again: quorum is lost at 44
		56: {arrive: []uint32{16}},
	}
	return prof, script, 64
}

// rerouteAll moves the sessions still bound to dead or draining shards, in
// the order given, and reports whether any moved.
func rerouteAll(c *Controller, ids []uint32) bool {
	moved := false
	for _, id := range ids {
		from, ok := c.owner(id)
		if !ok || c.States()[from].accepting() {
			continue
		}
		if to, _ := c.Reroute(SessionInfo{ID: id}, from, false); to >= 0 {
			moved = true
		}
	}
	return moved
}

// observeAll is an engine's observation pass: tally every live session.
func observeAll(c *Controller, live []uint32, slot int) {
	c.ResetTallies()
	for _, id := range live {
		if shard, ok := c.owner(id); ok {
			c.Tally(shard, false)
		}
	}
	for i, st := range c.States() {
		c.ObserveDemand(i, st.DemandMbps)
	}
	c.SampleHealth(slot, nil, nil, 0)
}

func without(ids []uint32, gone []uint32) []uint32 {
	return slices.DeleteFunc(ids, func(id uint32) bool { return slices.Contains(gone, id) })
}

// TestControllerEngineOrdersAgree is the differential between the two
// engines' call orders: one Controller is driven the way Live is (faults and
// their moves, placements, departures, then a Tick that retries the stranded
// and observes), another the way SimulateFleet is (faults, tick, moves,
// pending retries, placements, departures, observe), over one event script.
// The orders differ in where the cluster tick falls and in when a postponed
// move is retried, and must not differ in what the fleet ends up deciding:
// same owner for every session, same shard books, same coordinator outcome.
func TestControllerEngineOrdersAgree(t *testing.T) {
	prof, script, horizon := controlScript()

	liveOrder := testController(3, 4, nil)
	var liveSessions []uint32
	for slot := 0; slot < horizon; slot++ {
		c, ev := liveOrder, script[slot]
		for _, e := range c.Faults(prof, slot) { // Live.ApplyFaults
			if c.Apply(e) {
				if e.Kind != ShardDrainEnded {
					rerouteAll(c, liveSessions)
				}
				c.Resplit()
			}
		}
		for _, id := range ev.arrive { // RunLiveFleet's launches
			if _, err := c.Place(SessionInfo{ID: id}); err != nil {
				t.Fatalf("live order: slot %d: %v", slot, err)
			}
			liveSessions = append(liveSessions, id)
		}
		for _, id := range ev.depart { // clients leaving
			c.Forget(id)
		}
		liveSessions = without(liveSessions, ev.depart)
		c.Tick(slot) // Live.Tick
		rerouted := rerouteAll(c, liveSessions)
		observeAll(c, liveSessions, slot)
		if c.Rebalance(slot) == nil && rerouted {
			c.Resplit()
		}
	}

	simOrder := testController(3, 4, nil)
	var simSessions []uint32
	for slot := 0; slot < horizon; slot++ {
		c, ev := simOrder, script[slot]
		events := c.Faults(prof, slot)
		c.Tick(slot)
		for _, e := range events {
			if c.Apply(e) {
				if e.Kind != ShardDrainEnded {
					rerouteAll(c, simSessions)
				}
				c.Resplit()
			}
		}
		if c.available() && rerouteAll(c, simSessions) { // pending flips
			c.Resplit()
		}
		for _, id := range ev.arrive {
			if _, err := c.Place(SessionInfo{ID: id}); err != nil {
				t.Fatalf("sim order: slot %d: %v", slot, err)
			}
			simSessions = append(simSessions, id)
		}
		for _, id := range ev.depart {
			c.Forget(id)
		}
		simSessions = without(simSessions, ev.depart)
		observeAll(c, simSessions, slot)
		c.Rebalance(slot)
	}

	if !slices.Equal(liveSessions, simSessions) {
		t.Fatalf("the drivers disagree on who is live: %v vs %v", liveSessions, simSessions)
	}
	assertSingleAliveOwner(t, liveOrder, liveSessions)
	assertSingleAliveOwner(t, simOrder, simSessions)
	for _, id := range liveSessions {
		a, _ := liveOrder.owner(id)
		b, _ := simOrder.owner(id)
		if a != b {
			t.Errorf("session %d: live order ends on shard %d, sim order on shard %d", id, a, b)
		}
	}
	lo, so := liveOrder.Outcome(), simOrder.Outcome()
	if !reflect.DeepEqual(lo.Shards, so.Shards) {
		t.Errorf("shard books differ:\nlive order %+v\nsim order  %+v", lo.Shards, so.Shards)
	}
	if lo.Coord != so.Coord {
		t.Errorf("coord outcomes differ:\nlive order %+v\nsim order  %+v", lo.Coord, so.Coord)
	}
	if lo.Placements != so.Placements || lo.Migrations != so.Migrations || lo.Rebalances != so.Rebalances {
		t.Errorf("totals differ: live order %d/%d/%d, sim order %d/%d/%d (placements/migrations/rebalances)",
			lo.Placements, lo.Migrations, lo.Rebalances, so.Placements, so.Migrations, so.Rebalances)
	}
	// The script must have bitten, or agreement means nothing.
	if co := lo.Coord; co.Elections < 2 || co.LeaderlessSlots == 0 || co.Rejected == 0 || !co.Converged {
		t.Errorf("coordinator faults did not bite: %+v", co)
	}
	if lo.Migrations == 0 || lo.Shards[0].KilledSlot != 24 || lo.Shards[2].DrainSlot != 6 || lo.Shards[2].FinalBudgetMbps <= 0 {
		t.Errorf("shard faults did not bite: %+v", lo.Shards)
	}
}

// TestControllerDrainEndRejoins: the end of a bounded drain puts the shard
// back in the accepting set and in the budget split, and an open-ended drain
// never ends — on the state machine both engines run.
func TestControllerDrainEndRejoins(t *testing.T) {
	c := testController(1, 0, nil)
	prof := &chaos.Profile{Name: "drains", Seed: 1, Faults: []chaos.Fault{
		{Kind: chaos.FaultShardDrain, StartSlot: 2, DurationSlots: 5, Shard: 1},
		{Kind: chaos.FaultShardDrain, StartSlot: 3, Shard: 2},
	}}
	accepting := func() []bool {
		var out []bool
		for _, st := range c.States() {
			out = append(out, st.accepting())
		}
		return out
	}
	for slot := 0; slot <= 12; slot++ {
		events := c.Faults(prof, slot)
		c.Tick(slot)
		for _, ev := range events {
			if !c.Apply(ev) {
				t.Fatalf("slot %d: event %+v did not apply", slot, ev)
			}
			c.Resplit()
		}
		want := []bool{true, slot < 2 || slot >= 7, slot < 3}
		if got := accepting(); !slices.Equal(got, want) {
			t.Fatalf("slot %d: accepting %v, want %v", slot, got, want)
		}
		if b := c.States()[1].BudgetMbps; (b > 0) != want[1] {
			t.Fatalf("slot %d: shard 1 budget %v while accepting=%v", slot, b, want[1])
		}
	}
	if to, err := c.Place(SessionInfo{ID: 1}); err != nil || to == 2 {
		t.Errorf("placement after the drains = (%d, %v), want shard 0 or 1", to, err)
	}
	o := c.Outcome()
	if o.Shards[1].DrainSlot != 2 || o.Shards[2].DrainSlot != 3 || o.Shards[2].FinalBudgetMbps != 0 {
		t.Errorf("outcomes %+v", o.Shards)
	}
}

// TestControllerViewAllocs: what the engines call every slot — the router
// view, a placement, a departure, the observation tallies, the leaderless
// check — allocates nothing on a single-replica Controller in steady state.
func TestControllerViewAllocs(t *testing.T) {
	c := testController(1, 0, nil)
	c.Tick(0)
	for id := uint32(1); id <= 64; id++ {
		if _, err := c.Place(SessionInfo{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	slot := 0
	allocs := testing.AllocsPerRun(200, func() {
		slot++
		c.Faults(nil, slot)
		c.Tick(slot)
		to, err := c.Place(SessionInfo{ID: 1000, Zone: slot % 3})
		if err != nil {
			t.Fatal(err)
		}
		c.Forget(1000)
		c.ResetTallies()
		for id := 0; id < 64; id++ {
			c.Tally(id%3, id%8 == 0)
		}
		c.ObserveDemand(to, 120)
		if sum := c.States()[0].Sessions + c.States()[1].Sessions + c.States()[2].Sessions; sum != 64 {
			t.Fatalf("view counts %d sessions, want 64", sum)
		}
		c.SampleHealth(slot, nil, nil, 0)
		if c.EvacDue(0, slot) || !c.available() {
			t.Fatal("disabled evacuation fired, or a healthy replica is unavailable")
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per control-plane slot, want 0", allocs)
	}
}

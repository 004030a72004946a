package fleet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/fleet/coord"
	"repro/internal/motion"
	"repro/internal/obs"
	"repro/internal/server"
)

// TestLiveMigrateRollbackOnAdoptFailure is the regression test for the
// migration-failure leak: when AdoptSession fails mid-Migrate (here the
// target server is draining, which the router cannot see — it tracks only
// fleet-level draining), the exported session must be rolled back to the
// source shard: ownership unchanged, the session still streaming, and its
// eventual departure a normal retire, not a handoff.
func TestLiveMigrateRollbackOnAdoptFailure(t *testing.T) {
	baseGoroutines := obs.LeakSnapshot()
	reg := obs.NewRegistry()
	l := newTestLive(t, reg, nil, nil, nil)
	defer l.Close()

	const user = 11
	shard, err := l.Place(SessionInfo{ID: user})
	if err != nil {
		t.Fatal(err)
	}
	if shard != 0 {
		t.Fatalf("placed on shard %d, want 0", shard)
	}

	ccfg := client.DefaultConfig(user, l.ShardAddr(shard),
		motion.Generate(motion.Scenes()[0], user, 200, 200, 7))
	ccfg.SlotDuration = 5 * time.Millisecond
	ccfg.Slots = 200
	ccfg.Metrics = reg
	ccfg.Reconnect = true
	ccfg.Redirect = func() string { return l.Addr(user) }
	done := make(chan error, 1)
	go func() {
		_, err := client.Run(ccfg)
		done <- err
	}()
	if !l.servers[0].WaitSession(user, 2*time.Second) {
		t.Fatal("session never admitted on shard 0")
	}

	// Drain shard 1's server directly: the fleet layer still scores it as
	// a valid target, but its AdoptSession refuses — the exact mid-Migrate
	// failure that used to strand the session flagged handed-off.
	if !l.servers[1].Drain(2 * time.Second) {
		t.Fatal("shard 1 did not drain")
	}
	if _, err := l.migrate(user, obs.PlaceSLOPressure); err == nil {
		t.Fatal("migrate into a draining server succeeded, want adopt failure")
	}

	// Rollback: ownership is unchanged and the session keeps streaming on
	// the source shard.
	if got := l.owner(user); got != 0 {
		t.Fatalf("Owner(%d) = %d after failed migrate, want 0", user, got)
	}
	if n := l.servers[0].SessionCount(); n != 1 {
		t.Fatalf("source shard has %d sessions after failed migrate, want 1", n)
	}
	if err := <-done; err != nil {
		t.Fatalf("client: %v", err)
	}
	// The session retired as a normal departure, not a handoff.
	deadline := time.Now().Add(2 * time.Second)
	for l.servers[0].SessionCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if v := reg.Counter("collabvr_server_sessions_handoff_out_total").Value(); v != 0 {
		t.Fatalf("rolled-back migration still counted a handoff out (%d)", v)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	obs.AssertNoLeaks(t, baseGoroutines)
}

// TestLiveCoordLeaderFailover runs a 3-replica coordinator under the live
// fleet: killing the leader stalls ownership mutations for at most the
// lease, the survivors elect, the term advances and is broadcast to every
// shard as the new fencing epoch, and a real client migration completes
// end-to-end under the post-failover term — the full tentpole loop at the
// live layer.
func TestLiveCoordLeaderFailover(t *testing.T) {
	baseGoroutines := obs.LeakSnapshot()
	reg := obs.NewRegistry()
	base := server.DefaultConfig(nil) // per-shard allocators via NewAllocator
	base.SlotDuration = 5 * time.Millisecond
	base.Metrics = reg
	base.Logf = t.Logf
	l, err := NewLive(LiveConfig{
		Shards:           2,
		Base:             base,
		NewAllocator:     newShardAllocator,
		GlobalBudgetMbps: 400,
		Coord:            coord.Config{Replicas: 3, LeaseSlots: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const user = 21
	if _, err := l.Place(SessionInfo{ID: user}); err != nil {
		t.Fatal(err)
	}
	l.Tick(1)
	if st := l.CoordStatus(); st.Leader != 0 || st.Term != 1 {
		t.Fatalf("bootstrap coord leader/term = %d/%d, want 0/1", st.Leader, st.Term)
	}

	// Kill the leader: mutations fail fast until the lease drains.
	l.coordKill(0)
	if _, err := l.Place(SessionInfo{ID: 22}); !coord.Unavailable(err) {
		t.Fatalf("place under dead coord leader: err = %v, want unavailable", err)
	}
	// A departure during the outage is rejected by the log and queued; the
	// post-failover Tick must replay it.
	l.Forget(99)
	elected := false
	for slot := 2; slot <= 12; slot++ {
		l.Tick(slot)
		if st := l.CoordStatus(); st.Leader == 1 {
			elected = true
			break
		}
	}
	if !elected {
		t.Fatal("survivors never elected replica 1")
	}
	st := l.CoordStatus()
	if st.Term != 2 || st.Elections != 1 {
		t.Fatalf("post-failover term/elections = %d/%d, want 2/1", st.Term, st.Elections)
	}
	// Committed ownership survived, and the registry mirrors the cluster.
	if got := l.owner(user); got < 0 {
		t.Fatalf("Owner(%d) lost across failover", user)
	}
	if v := reg.Counter("collabvr_fleet_coord_elections_total").Value(); v != 1 {
		t.Fatalf("elections metric = %d, want 1", v)
	}
	if v := reg.Counter("collabvr_fleet_coord_rejected_total").Value(); v == 0 {
		t.Fatal("rejected metric did not count the outage-window proposal")
	}
	// Every live shard was fenced to the new term.
	for i := 0; i < len(l.servers); i++ {
		if e := l.servers[i].CoordEpoch(); e != 2 {
			t.Fatalf("shard %d epoch = %d after failover, want 2", i, e)
		}
	}

	// A real migration completes under the new term: the handoff state is
	// stamped epoch 2 and the target (fenced to 2) adopts it.
	ccfg := client.DefaultConfig(user, l.Addr(user),
		motion.Generate(motion.Scenes()[0], user, 400, 200, 7))
	ccfg.SlotDuration = 5 * time.Millisecond
	ccfg.Slots = 400
	ccfg.Metrics = reg
	ccfg.Reconnect = true
	ccfg.ReconnectAttempts = 8
	ccfg.ReconnectBase = 2 * time.Millisecond
	ccfg.ReconnectCap = 20 * time.Millisecond
	ccfg.Redirect = func() string { return l.Addr(user) }
	type outcome struct {
		res *client.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := client.Run(ccfg)
		done <- outcome{res, err}
	}()
	fromShard := l.owner(user)
	if !l.servers[fromShard].WaitSession(user, 2*time.Second) {
		t.Fatal("session never admitted")
	}
	to, err := l.migrate(user, obs.PlaceSLOPressure)
	if err != nil {
		t.Fatalf("post-failover migrate: %v", err)
	}
	if !l.servers[to].WaitSession(user, 2*time.Second) {
		t.Fatal("session never admitted on adopting shard after post-failover migration")
	}
	if v := reg.Counter("collabvr_fleet_coord_fenced_total").Value(); v != 0 {
		t.Fatalf("legitimate post-failover migration was fenced (%d)", v)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("client: %v", out.err)
	}
	if out.res.Resumes < 1 {
		t.Errorf("Resumes = %d, want >= 1 (Welcome{Resumed} under the new epoch)", out.res.Resumes)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	obs.AssertNoLeaks(t, baseGoroutines)
}

// TestLiveCoordStaleFlipFenced drives the split-brain scenario directly
// at the server surface: handoff state minted under term 1 replays against
// a shard the fleet has already fenced to term 2 — the adopt is rejected
// and counted.
func TestLiveCoordStaleFlipFenced(t *testing.T) {
	reg := obs.NewRegistry()
	base := server.DefaultConfig(nil) // per-shard allocators via NewAllocator
	base.SlotDuration = 5 * time.Millisecond
	base.Metrics = reg
	l, err := NewLive(LiveConfig{
		Shards:           2,
		Base:             base,
		NewAllocator:     newShardAllocator,
		GlobalBudgetMbps: 400,
		Coord:            coord.Config{Replicas: 3, LeaseSlots: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Tick(1)

	// The deposed leader exported this under term 1...
	stale := &server.HandoffState{User: 5, Slot: 9, FromShard: 0, Epoch: 1}
	stale.Token = server.HandoffToken(5, 9, 0, 1)

	// ...but the fleet has since elected and fenced the shards to term 2.
	l.coordKill(0)
	for slot := 2; slot <= 10; slot++ {
		l.Tick(slot)
	}
	if st := l.CoordStatus(); st.Term != 2 {
		t.Fatalf("term = %d, want 2 after failover", st.Term)
	}
	if err := l.servers[1].AdoptSession(stale); !errors.Is(err, server.ErrStaleEpoch) {
		t.Fatalf("stale flip adopt: err = %v, want ErrStaleEpoch", err)
	}
	if v := reg.Counter("collabvr_fleet_coord_fenced_total").Value(); v != 1 {
		t.Fatalf("fenced metric = %d, want 1", v)
	}
}

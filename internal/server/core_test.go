package server

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tiles"
	"repro/internal/transport"
	"repro/internal/vrmath"
)

// The decider's tests drive it directly: no socket, no goroutine of their
// own, no sleep.

// testDecider builds a decider whose pool closes with the test.
func testDecider(t *testing.T, cfg Config) *decider {
	t.Helper()
	c := newDecider(cfg)
	t.Cleanup(c.pool.Close)
	return c
}

// testServer builds a server without sockets or goroutines (newServer), for
// driving the dispatch and NACK performers beside the decider.
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := newServer(cfg)
	t.Cleanup(s.pool.Close)
	return s
}

// bareSession admits a session with no connection: the decider makes its
// decision half; its send queue holds queue batches.
func bareSession(t *testing.T, c *decider, user uint32, queue int) *session {
	t.Helper()
	sess := &session{user: user, sendCh: make(chan []tileJob, queue)}
	if _, _, ok := c.admit(sess); !ok {
		t.Fatalf("user %d not admitted", user)
	}
	return sess
}

// handOff exports user from a, adopts the state into b and admits the
// user's redial there.
func handOff(t *testing.T, a, b *decider, user uint32) *session {
	t.Helper()
	st, err := a.ExportSession(user)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AdoptSession(st); err != nil {
		t.Fatal(err)
	}
	sess := &session{user: user}
	if _, resumed, ok := b.admit(sess); !ok || !resumed {
		t.Fatalf("redial admitted=%v resumed=%v, want both", ok, resumed)
	}
	return sess
}

// TestDeciderHandoffCapWindowOrder: a handoff keeps the goodput max-filter's
// eviction order. The exporter's ring has wrapped, so its oldest sample sits
// mid-array; the samples fall, so the window's maximum is always its oldest
// sample and evicting any other first keeps a stale maximum alive.
func TestDeciderHandoffCapWindowOrder(t *testing.T) {
	const k = 37
	cfg := DefaultConfig(core.NewSolverAllocator())
	a, b := testDecider(t, cfg), testDecider(t, cfg)
	src := bareSession(t, a, 1, 1)
	mbps := func(i int) float64 { return 300 - float64(i) }
	for i := 0; i < capWindow+k; i++ {
		a.ack(src, goodputACK(uint32(i), mbps(i)))
	}
	if src.capIdx != k {
		t.Fatalf("ring index %d, want wrapped by %d", src.capIdx, k)
	}
	dst := handOff(t, a, b, 1)
	for i := capWindow + k; i < 2*capWindow+k; i++ {
		ack := goodputACK(uint32(i), mbps(i))
		a.ack(src, ack)
		b.ack(dst, ack)
		if ga, gb := src.capEstimate(), dst.capEstimate(); ga != gb {
			t.Fatalf("sample %d after the handoff: capEstimate %v on the exporter, %v on the adopter",
				i-capWindow-k, ga, gb)
		}
	}
}

// TestDeciderHandoffContinuesEstimators: the adopting shard's session
// continues the exporter's EMA, max-filter, delay regression and QoE state
// bit for bit, and keeps doing so on the same feedback.
func TestDeciderHandoffContinuesEstimators(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	a, b := testDecider(t, cfg), testDecider(t, cfg)
	src := bareSession(t, a, 3, 1)
	feed := func(c *decider, sess *session, i int) {
		slot := uint32(i)
		sess.allocated[slot] = allocRecord{level: 1 + i%5, rate: 4 + float64(i%23)}
		ack := goodputACK(slot, 20+float64(i%9))
		ack.DelayMs = 4 + 0.05*float64(i*i%17)
		ack.Covered, ack.Displayed = i%4 != 0, i%3 != 0
		c.ack(sess, ack)
	}
	for i := 0; i < 40; i++ {
		feed(a, src, i)
	}
	dst := handOff(t, a, b, 3)
	same := func(what string, x, y float64) {
		t.Helper()
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("%s: %v on the exporter, %v on the adopter", what, x, y)
		}
	}
	rates := []float64{2, 5, 10, 20, 40, 60}
	check := func() {
		t.Helper()
		same("EMA", src.ema.Value(), dst.ema.Value())
		same("capEstimate", src.capEstimate(), dst.capEstimate())
		same("Delta", src.Delta(), dst.Delta())
		same("MeanQ", src.MeanQ(), dst.MeanQ())
		da, db := make([]float64, len(rates)), make([]float64, len(rates))
		src.DelayTableInto(da, rates, 50, 1000.0/60)
		dst.DelayTableInto(db, rates, 50, 1000.0/60)
		for i := range rates {
			same("delay table", da[i], db[i])
		}
	}
	check()
	for i := 40; i < 60; i++ {
		feed(a, src, i)
		feed(b, dst, i)
	}
	check()
}

// TestDeciderResumeTruncates: handed-off windows longer than the adopting
// shard keeps are cut to their newest samples, and delay samples pair up
// by index, the longer list's tail dropped.
func TestDeciderResumeTruncates(t *testing.T) {
	seq := func(n int, scale float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = scale * float64(i)
		}
		return out
	}
	c := testDecider(t, DefaultConfig(core.NewSolverAllocator()))
	st := &HandoffState{
		User: 4, Slot: 9, FromShard: 1, Token: HandoffToken(4, 9, 1, 0),
		CapSamples: seq(capWindow+10, 1),
		DelayRates: seq(maxDelaySamples+60, 1),
		DelayMs:    seq(maxDelaySamples+20, 10),
	}
	if err := c.AdoptSession(st); err != nil {
		t.Fatal(err)
	}
	sess := bareSession(t, c, 4, 1)
	if n, first := len(sess.capSamples), sess.capSamples[0]; n != capWindow || first != 10 {
		t.Errorf("cap window %d samples from %v, want the newest %d (from 10)", n, first, capWindow)
	}
	if n := len(sess.delayRates); n != maxDelaySamples || len(sess.delayMs) != n || sess.delayRates[0] != 20 {
		t.Fatalf("delay window %d/%d samples from rate %v, want the newest %d common pairs (from 20)",
			n, len(sess.delayMs), sess.delayRates[0], maxDelaySamples)
	}
	for i, r := range sess.delayRates {
		if sess.delayMs[i] != 10*r {
			t.Fatalf("delay pair %d = (%v, %v), want (r, 10r)", i, r, sess.delayMs[i])
		}
	}
	// A short window resumes whole.
	st = &HandoffState{User: 5, Slot: 9, FromShard: 1, Token: HandoffToken(5, 9, 1, 0), CapSamples: seq(3, 1)}
	if err := c.AdoptSession(st); err != nil {
		t.Fatal(err)
	}
	if got := bareSession(t, c, 5, 1).capSamples; len(got) != 3 || got[2] != 2 {
		t.Errorf("short cap window resumed as %v, want [0 1 2]", got)
	}
}

// TestDeciderReconnectAtMaxSessions: at the session limit a Hello from an
// admitted user supersedes its session instead of being refused, while a
// new user is still rejected and counted.
func TestDeciderReconnectAtMaxSessions(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.MaxSessions = 1
	cfg.Metrics = obs.NewRegistry()
	c := testDecider(t, cfg)
	first := bareSession(t, c, 1, 1)
	prev, _, ok := c.admit(&session{user: 1})
	if !ok || prev != first {
		t.Fatalf("redial at the limit: admitted=%v, superseded %p, want true and %p", ok, prev, first)
	}
	c.retire(first) // the superseded session's control loop exits
	if n := c.SessionCount(); n != 1 {
		t.Errorf("session count = %d, want 1", n)
	}
	if _, _, ok := c.admit(&session{user: 2}); ok {
		t.Error("a new user was admitted past MaxSessions")
	}
	if got := cfg.Metrics.Counter("collabvr_server_sessions_rejected_total").Value(); got != 1 {
		t.Errorf("sessions_rejected_total = %d, want 1", got)
	}
	if got := cfg.Metrics.Gauge("collabvr_server_sessions_active").Value(); got != 1 {
		t.Errorf("sessions_active = %v, want 1", got)
	}
}

// TestDeciderConcurrentIngest: the slot (decide, then dispatch outside the
// lock) runs while other goroutines feed poses, ACKs and NACKs, export and
// cancel, and a reconnect supersedes a session; under -race this is the
// one lock's gate without sockets or sleeps.
func TestDeciderConcurrentIngest(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotWorkers = 2
	cfg.RetransmitOnNack = true
	srv := testServer(t, cfg)
	const users, slots = 4, 120
	var wg sync.WaitGroup
	for u := uint32(1); u <= users; u++ {
		sess := posedSession(t, srv.decider, u, vrmath.Pose{Pos: vrmath.Vec3{X: float64(u)}}, 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, _ := tiles.PackVideoID(tiles.CellID{X: int32(u)}, 0, 2)
			for k := 0; k < slots; k++ {
				srv.pose(sess, vrmath.Pose{Pos: vrmath.Vec3{X: float64(u), Z: float64(k % 3)}, Yaw: float64(k)})
				srv.ack(sess, goodputACK(uint32(k), 20+float64(k%7)))
				srv.handleNack(sess, transport.Nack{User: u, Slot: uint32(k), Tiles: []tiles.VideoID{id}})
				if k%10 == 0 {
					if _, err := srv.ExportSession(u); err == nil {
						srv.CancelExport(u)
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		redial := &session{user: 1, sendCh: make(chan []tileJob, 2)}
		if prev, _, ok := srv.admit(redial); ok && prev != nil {
			srv.retire(prev)
		}
	}()
	for k := 0; k < slots; k++ {
		srv.runSlot(uint32(k))
	}
	wg.Wait()
	if n := srv.SessionCount(); n != users {
		t.Fatalf("%d sessions, want %d", n, users)
	}
	for _, sess := range srv.sessions[1:] { // user 1's redial may never pose
		if sess.slotsServed != slots || sess.handoff {
			t.Errorf("user %d: served %d slots, handoff %v", sess.user, sess.slotsServed, sess.handoff)
		}
	}
}

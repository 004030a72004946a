package server

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tiles"
	"repro/internal/transport"
	"repro/internal/vrmath"
)

// panickyAllocator crashes on one specific Allocate call, standing in for an
// allocator bug on a pathological input.
type panickyAllocator struct {
	inner   core.Allocator
	calls   atomic.Int32
	panicOn int32
}

func (p *panickyAllocator) Name() string { return "panicky" }

func (p *panickyAllocator) Allocate(params core.Params, prob *core.SlotProblem) core.Allocation {
	if p.calls.Add(1) == p.panicOn {
		panic("injected allocator crash")
	}
	return p.inner.Allocate(params, prob)
}

// TestServerDrainFlushesAndExitsClean: Drain stops accepts and the slot
// clock, flushes in-flight send queues, notifies clients, and leaves no
// goroutine behind after the follow-up Close — the SIGTERM contract.
func TestServerDrainFlushesAndExitsClean(t *testing.T) {
	base := obs.LeakSnapshot()
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 5 * time.Millisecond
	cfg.Metrics = obs.NewRegistry()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	f1 := dialFake(t, srv, 1)
	defer f1.close()
	f2 := dialFake(t, srv, 2)
	defer f2.close()
	waitFor(t, "sessions admitted", func() bool { return sessionCount(srv) == 2 })
	pose := vrmath.Pose{Pos: vrmath.Vec3{X: 1, Z: 1}, Yaw: 30}
	f1.ctrl.Send(transport.PoseUpdate{User: 1, Slot: 0, Pose: pose})
	f2.ctrl.Send(transport.PoseUpdate{User: 2, Slot: 0, Pose: pose})
	if pkts := f1.drainPackets(200 * time.Millisecond); len(pkts) == 0 {
		t.Fatal("no tile traffic before drain")
	}

	if !srv.Drain(2 * time.Second) {
		t.Error("drain did not flush within its deadline")
	}
	// Drained clients must observe the shutdown on their control channel.
	f1.ctrl.SetDeadline(time.Now().Add(2 * time.Second))
	for {
		if _, err := f1.ctrl.Recv(); err != nil {
			break
		}
	}
	// A second Drain is a no-op, and Close after Drain releases everything.
	if !srv.Drain(time.Second) {
		t.Error("repeated drain should succeed trivially")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close after drain: %v", err)
	}
	obs.AssertNoLeaks(t, base)
}

// TestServerPanicRecoveryIsolatesSlot: a panicking allocator costs one slot,
// not the server. The panic is recovered, counted, logged with the flight
// recorder's context, and the pipeline keeps serving subsequent slots.
func TestServerPanicRecoveryIsolatesSlot(t *testing.T) {
	base := obs.LeakSnapshot()
	alloc := &panickyAllocator{inner: core.NewSolverAllocator(), panicOn: 3}
	cfg := DefaultConfig(alloc)
	cfg.SlotDuration = 5 * time.Millisecond
	cfg.Metrics = obs.NewRegistry()
	cfg.Recorder = obs.NewRecorder(obs.RecorderOptions{RingSize: 16})
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fc := dialFake(t, srv, 1)
	defer fc.close()
	waitFor(t, "session admitted", func() bool { return sessionCount(srv) == 1 })
	pose := vrmath.Pose{Pos: vrmath.Vec3{X: 1, Z: 1}, Yaw: 30}
	fc.ctrl.Send(transport.PoseUpdate{User: 1, Slot: 0, Pose: pose})

	waitFor(t, "panic recovered", func() bool {
		return cfg.Metrics.Counter("collabvr_server_panics_recovered_total").Value() >= 1
	})
	// The pipeline must keep deciding after the crash slot.
	after := alloc.calls.Load()
	waitFor(t, "slots after the panic", func() bool { return alloc.calls.Load() > after+3 })
	if pkts := fc.drainPackets(200 * time.Millisecond); len(pkts) == 0 {
		t.Error("no tile traffic after recovered panic")
	}
	if n := sessionCount(srv); n != 1 {
		t.Errorf("session count after panic = %d, want 1", n)
	}

	srv.Drain(2 * time.Second)
	srv.Close()
	obs.AssertNoLeaks(t, base)
}

// TestHandleNackRetryPolicy: with a retry policy configured, repeated NACKs
// of the same tile back off (notBefore stamped) and eventually abandon,
// surfacing in the abandoned-tiles counter instead of retrying forever.
func TestHandleNackRetryPolicy(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.RetransmitOnNack = true
	cfg.Metrics = obs.NewRegistry()
	cfg.RetryPolicy = transport.RetryPolicy{
		Base: time.Millisecond, Cap: 4 * time.Millisecond,
		MaxAttempts: 2, Budget: time.Minute,
	}
	srv := testServer(t, cfg)
	sess := bareSession(t, srv.decider, 1, 4)
	lost, err := tiles.PackVideoID(tiles.CellID{X: 2}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	nack := transport.Nack{User: 1, Slot: 9, Tiles: []tiles.VideoID{lost}}

	for attempt := 0; attempt < 2; attempt++ {
		srv.handleNack(sess, nack)
		select {
		case batch := <-sess.sendCh:
			if batch[0].notBefore.IsZero() {
				t.Fatalf("attempt %d: retransmission without a backoff deadline", attempt)
			}
			if got := int(batch[0].retry); got != attempt+1 {
				t.Fatalf("attempt %d: retry counter = %d, want %d", attempt, got, attempt+1)
			}
		default:
			t.Fatalf("attempt %d: nothing enqueued", attempt)
		}
	}
	// Third NACK exceeds MaxAttempts: abandoned, nothing enqueued.
	srv.handleNack(sess, nack)
	select {
	case batch := <-sess.sendCh:
		t.Fatalf("tile retried past its budget: %v", batch)
	default:
	}
	if got := cfg.Metrics.Counter("collabvr_server_retry_abandoned_tiles_total").Value(); got != 1 {
		t.Errorf("retry_abandoned_tiles_total = %d, want 1", got)
	}
	// Abandonment cleared the retry state, so a fresh NACK starts over.
	srv.handleNack(sess, nack)
	select {
	case batch := <-sess.sendCh:
		if got := int(batch[0].retry); got != 1 {
			t.Errorf("post-abandon retry counter = %d, want 1 (state reset)", got)
		}
	default:
		t.Fatal("post-abandon NACK not retried afresh")
	}
}

// TestRetireSessionIdempotent: the panic-recovery paths and the normal
// control-loop exit can both retire the same session; the active gauge must
// move exactly once.
func TestRetireSessionIdempotent(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.Metrics = obs.NewRegistry()
	c := testDecider(t, cfg)
	sess := bareSession(t, c, 9, 1)

	c.retire(sess)
	c.retire(sess)
	// The control loop's own retirement (after the closed conn) must not
	// decrement again either.
	c.retire(sess)
	if n := c.SessionCount(); n != 0 {
		t.Errorf("session count = %d, want 0", n)
	}
	if got := cfg.Metrics.Gauge("collabvr_server_sessions_active").Value(); got != 0 {
		t.Errorf("sessions_active = %v, want 0 after redundant retires", got)
	}
	if got := cfg.Metrics.Counter("collabvr_server_sessions_left_total").Value(); got != 1 {
		t.Errorf("sessions_left_total = %d, want 1", got)
	}
}

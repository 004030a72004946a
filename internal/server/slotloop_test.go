package server

import (
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/step"
	"repro/internal/transport"
	"repro/internal/vrmath"
)

// TestSlotPoolForEachCoversAll: the server's slot pool (the ForkJoin sized
// by Config.SlotWorkers that runs the build and dispatch phases) calls every
// index exactly once at the grain the phases use, runs a job too small to
// split inline, and a nil pool degenerates to a plain loop.
func TestSlotPoolForEachCoversAll(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotWorkers = 4
	srv := testDecider(t, cfg)
	var hits [1000]int32
	srv.pool.Run(len(hits), step.Grain, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times, want exactly once", i, h)
		}
	}
	// Jobs too small to split run inline on the caller.
	var small [3]int32
	srv.pool.Run(len(small), step.Grain, func(i int) { atomic.AddInt32(&small[i], 1) })
	for i, h := range small {
		if h != 1 {
			t.Fatalf("small index %d ran %d times", i, h)
		}
	}
	// A nil pool degenerates to a plain loop.
	var nilPool *step.ForkJoin
	ran := 0
	nilPool.Run(5, step.Grain, func(int) { ran++ })
	if ran != 5 {
		t.Fatalf("nil pool ran %d of 5", ran)
	}
}

// posedSession admits a bare session (see bareSession) that has posed once.
func posedSession(t *testing.T, c *decider, user uint32, pose vrmath.Pose, queue int) *session {
	t.Helper()
	sess := bareSession(t, c, user, queue)
	c.pose(sess, pose)
	return sess
}

// churnSessions admits a deterministic, diverse session population: a
// stable sorted user order with some sessions poseless, some with primed
// throughput estimates and some with enough delay history to engage the
// regression path.
func churnSessions(t *testing.T, c *decider, n int) []*session {
	sessions := make([]*session, 0, n)
	for u := 1; u <= n; u++ {
		pose := vrmath.Pose{
			Pos: vrmath.Vec3{X: float64(u) * 0.3, Z: float64(u % 7)},
			Yaw: float64((u*37)%360) - 180,
		}
		var sess *session
		if u%5 == 0 {
			sess = bareSession(t, c, uint32(u), 8)
		} else {
			sess = posedSession(t, c, uint32(u), pose, 8)
		}
		if u%3 == 0 {
			sess.ema.Update(20 + float64(u))
		}
		if u%4 == 0 {
			for k := 0; k < 16; k++ {
				r := float64(2*k) + float64(u%5)
				sess.delayRates = append(sess.delayRates, r)
				sess.delayMs = append(sess.delayMs, 0.01*r*r+0.4)
			}
		}
		sessions = append(sessions, sess)
	}
	return sessions
}

// sessionOutcome is the per-user decision trail of a slot sequence.
type sessionOutcome struct {
	levels  []int
	rates   []float64
	sent    int
	skipped int
}

func runSlotSequence(t *testing.T, workers, users, slots int) map[uint32]sessionOutcome {
	t.Helper()
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotWorkers = workers
	c := testDecider(t, cfg)
	sessions := churnSessions(t, c, users)
	for k := 0; k < slots; k++ {
		c.decide(uint32(k))
	}
	out := make(map[uint32]sessionOutcome, users)
	for _, sess := range sessions {
		o := sessionOutcome{sent: sess.tilesSent, skipped: sess.tilesSkipped}
		for k := 0; k < slots; k++ {
			if rec, ok := sess.allocated[uint32(k)]; ok {
				o.levels = append(o.levels, rec.level)
				o.rates = append(o.rates, rec.rate)
			} else {
				o.levels = append(o.levels, -1)
				o.rates = append(o.rates, -1)
			}
		}
		out[sess.user] = o
	}
	return out
}

// TestRunSlotShardedMatchesSerial is the sharded-pipeline differential:
// the same session population decided by a serial slot loop and by a
// 4-way sharded one must produce bit-identical levels and admitted rates
// for every user and slot.
func TestRunSlotShardedMatchesSerial(t *testing.T) {
	const users, slots = 40, 6
	serial := runSlotSequence(t, 1, users, slots)
	sharded := runSlotSequence(t, 4, users, slots)
	if len(serial) != len(sharded) {
		t.Fatalf("user counts differ: %d vs %d", len(serial), len(sharded))
	}
	for user, a := range serial {
		b, ok := sharded[user]
		if !ok {
			t.Fatalf("user %d missing from sharded run", user)
		}
		if a.sent != b.sent || a.skipped != b.skipped {
			t.Errorf("user %d: sent/skipped %d/%d (serial) vs %d/%d (sharded)",
				user, a.sent, a.skipped, b.sent, b.skipped)
		}
		for k := 0; k < slots; k++ {
			if a.levels[k] != b.levels[k] {
				t.Errorf("user %d slot %d: level %d (serial) vs %d (sharded)",
					user, k, a.levels[k], b.levels[k])
			}
			if math.Float64bits(a.rates[k]) != math.Float64bits(b.rates[k]) {
				t.Errorf("user %d slot %d: rate %v (serial) vs %v (sharded)",
					user, k, a.rates[k], b.rates[k])
			}
		}
	}
}

// TestRunSlotSteadyStateAllocs gates the hot path: with observability
// disabled (nil Metrics/Recorder/Tracer) and a shared allocator, a
// steady-state slot — the decision and the dispatch of its plan — must not
// allocate at all: scratch buffers, the batch free list and the solver's
// reused heap absorb everything. At 4 workers and 24 sessions the build and
// dispatch phases split across the slot's fork-join, whose loops must
// allocate nothing either.
func TestRunSlotSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct{ workers, sessions int }{{1, 8}, {4, 24}} {
		cfg := DefaultConfig(core.NewSolverAllocator())
		cfg.SlotWorkers = c.workers
		srv := testServer(t, cfg)

		for u := 1; u <= c.sessions; u++ {
			pose := vrmath.Pose{Pos: vrmath.Vec3{X: float64(u), Z: 2}, Yaw: float64(u * 20)}
			sess := posedSession(t, srv.decider, uint32(u), pose, 1)
			if u%3 == 0 {
				// Enough history to engage the regression branch of the delay
				// table, which must also be allocation-free.
				for k := 0; k < 16; k++ {
					r := float64(2 * k)
					sess.delayRates = append(sess.delayRates, r)
					sess.delayMs = append(sess.delayMs, 0.02*r*r+0.3)
				}
			}
		}

		// A fixed slot number keeps the allocation-record map at size one.
		const slot = 7
		for i := 0; i < 50; i++ {
			srv.runSlot(slot)
		}
		avg := testing.AllocsPerRun(200, func() {
			srv.runSlot(slot)
		})
		if avg != 0 {
			t.Fatalf("SlotWorkers %d, %d sessions: steady-state runSlot allocates %.2f allocs/op, want 0",
				c.workers, c.sessions, avg)
		}
	}
}

// TestAllocatedMapBounded pins the allocation-record purge: a session that
// never ACKs (dead display path) must not grow its slot->allocation join
// map without bound.
func TestAllocatedMapBounded(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotWorkers = 1
	c := testDecider(t, cfg)
	sess := posedSession(t, c, 1, vrmath.Pose{Pos: vrmath.Vec3{X: 1, Z: 1}}, 1)
	for k := 0; k < 4*maxAllocRecords; k++ {
		c.decide(uint32(k))
	}
	if n := len(sess.allocated); n > maxAllocRecords {
		t.Fatalf("allocated map grew to %d entries, want <= %d", n, maxAllocRecords)
	}
}

// dialQuiet is dialFake without t.Fatal, usable from churn goroutines.
func dialQuiet(srv *Server, user uint32) (*fakeClient, error) {
	udp, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	raw, err := net.Dial("tcp", srv.ControlAddr())
	if err != nil {
		udp.Close()
		return nil, err
	}
	ctrl := transport.NewConn(raw)
	if err := ctrl.Send(transport.Hello{
		User:         user,
		UDPAddr:      udp.LocalAddr().String(),
		RAMThreshold: 64,
	}); err != nil {
		ctrl.Close()
		udp.Close()
		return nil, err
	}
	return &fakeClient{udp: udp, ctrl: ctrl}, nil
}

// TestSlotLoopConcurrentChurnRace hammers the sharded slot loop with
// concurrent joins, departures and live handoffs while slots are being
// decided; run under -race it is the data-race gate of the slot's fork-join,
// and the leak assertion gates pool shutdown via Drain/Close.
func TestSlotLoopConcurrentChurnRace(t *testing.T) {
	baseline := obs.LeakSnapshot()
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 2 * time.Millisecond
	cfg.SlotWorkers = 4
	cfg.RetransmitOnNack = true
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var dialErrs atomic.Int32

	// Churners: short-lived sessions joining and leaving mid-slot.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				user := uint32(100*w + i%4 + 1)
				fc, err := dialQuiet(srv, user)
				if err != nil {
					dialErrs.Add(1)
					return
				}
				pose := vrmath.Pose{
					Pos: vrmath.Vec3{X: float64(user), Z: float64(i % 5)},
					Yaw: float64((i * 11) % 360),
				}
				fc.ctrl.Send(transport.PoseUpdate{User: user, Slot: uint32(i), Pose: pose})
				time.Sleep(4 * time.Millisecond)
				fc.close()
			}
		}(w)
	}

	// Handoff worker: exports, adopts and redials one user in a loop while
	// the slot loop keeps deciding.
	wg.Add(1)
	go func() {
		defer wg.Done()
		const user = 999
		fc, err := dialQuiet(srv, user)
		if err != nil {
			dialErrs.Add(1)
			return
		}
		fc.ctrl.Send(transport.PoseUpdate{User: user, Slot: 0, Pose: vrmath.Pose{Pos: vrmath.Vec3{X: 9, Z: 9}}})
		for i := 0; ; i++ {
			select {
			case <-stop:
				fc.close()
				return
			default:
			}
			st, err := srv.ExportSession(user)
			if err != nil {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			if err := srv.AdoptSession(st); err != nil {
				fc.close()
				return
			}
			srv.ReleaseSession(user)
			fc.close()
			fc, err = dialQuiet(srv, user)
			if err != nil {
				dialErrs.Add(1)
				return
			}
			fc.ctrl.Send(transport.PoseUpdate{User: user, Slot: uint32(i), Pose: vrmath.Pose{Pos: vrmath.Vec3{X: 9, Z: 9}}})
			time.Sleep(3 * time.Millisecond)
		}
	}()

	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := dialErrs.Load(); n > 0 {
		t.Logf("%d churn dials failed (acceptable under load)", n)
	}

	if !srv.Drain(5 * time.Second) {
		t.Error("drain did not flush all send queues")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	obs.AssertNoLeaks(t, baseline)
}

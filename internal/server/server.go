// Package server implements the edge server of the paper's collaborative VR
// system (Sections V-VI). Per time slot it ingests user poses over TCP,
// predicts each user's next pose, selects the tiles that cover the
// predicted FoV plus margin, builds the per-slot allocation problem (rates
// from the content size model, delays from a polynomial-regression
// predictor, throughput from an EMA estimator) and hands it to any
// core.Allocator. Chosen tiles stream to each user over the RTP-like UDP
// transport, skipping tiles the user already holds. The decider (core.go)
// makes every decision behind one lock and reads no clock; the performers
// here own every socket, goroutine and clock, and call into it.
package server

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/step"
	"repro/internal/tiles"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Config parametrizes a Server.
type Config struct {
	Params    core.Params
	Allocator core.Allocator
	// SlotDuration is the slot length (paper: 1/60 s).
	SlotDuration time.Duration
	// BudgetMbps is B(t), the server's total throughput budget.
	BudgetMbps float64
	// TotalSlots stops the slot loop after this many slots (0 = until
	// Close).
	TotalSlots int
	// SizeModelSeed selects the content complexity landscape.
	SizeModelSeed uint64
	// ShaperFor supplies the transmit-path shaper of each user (the
	// testbed's Linux-TC stand-in); nil means unshaped.
	ShaperFor func(user uint32) transport.Shaper
	// RetransmitOnNack enables the Discussion-section loss-handling
	// extension: tiles the client NACKs are retransmitted.
	RetransmitOnNack bool
	// PrefetchRadius warms the tile cache with the cells around each
	// user's predicted position ("the server only needs to cache the tiles
	// within a range of the user's current position and dynamically adjust
	// the cached content corresponding to the user's movement"). 0 disables
	// prefetching.
	PrefetchRadius int
	// MaxSessions bounds the number of concurrently admitted sessions
	// (accept-loop backpressure for load-generation runs): beyond it the
	// server closes new control connections without a Welcome, so clients
	// see an explicit rejection instead of a hung handshake. 0 means
	// unlimited.
	MaxSessions int
	// TCPAddr and UDPAddr are the bind addresses (default loopback
	// ephemeral, for in-process testbeds; a standalone server binds
	// explicit ports).
	TCPAddr string
	UDPAddr string
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
	// Metrics receives the server's counters/gauges/histograms; nil
	// disables metrics with near-zero overhead.
	Metrics *obs.Registry
	// Recorder receives one decision record per allocation slot; nil
	// disables the flight recorder with near-zero overhead.
	Recorder *obs.Recorder
	// Tracer receives request-scoped spans following each tile request
	// through the slot pipeline; nil disables tracing with one pointer
	// check per instrumentation point.
	Tracer *trace.Tracer
	// TraceEpoch seeds the deterministic trace-ID derivation; clients that
	// share it (and the epoch 0 default) stitch their spans onto the
	// server's traces.
	TraceEpoch uint64
	// SLO receives per-session display outcomes for burn-rate alerting;
	// nil disables SLO monitoring.
	SLO *obs.SLOMonitor
	// Breaker is the per-session quality circuit breaker: fed the SLO alert
	// state per ACKed slot, it caps a struggling session's quality level so
	// the system degrades fidelity before it ever drops a user. Nil
	// disables. Requires SLO.
	Breaker *obs.Breaker
	// RetryPolicy bounds NACK-driven retransmissions with full-jitter
	// exponential backoff, an attempt cap and a per-tile wall-clock budget;
	// exhausted tiles are abandoned (surfaced as a tx.abandon span). The
	// zero policy keeps the pre-resilience behavior: every NACK is answered
	// immediately and retries never abandon.
	RetryPolicy transport.RetryPolicy
	// Chaos injects server-pipeline faults (slot stalls, slow ACK
	// processing) from a chaos profile; nil disables.
	Chaos *chaos.ServerInjector
	// ShardID identifies this server inside a fleet (0 standalone). It is
	// echoed in every Welcome so clients know which shard serves them, and
	// salts handoff tokens so tokens from different shards never collide.
	ShardID int
	// SlotWorkers shards the slot pipeline's per-session phases
	// (predict/estimate/admit before the merged solve, fetch/dispatch
	// after it) across a step.ForkJoin of this total parallelism, the slot
	// loop included. 0 means GOMAXPROCS; 1 runs the pipeline
	// serially inline. Decisions are identical at any setting: the solve
	// itself stays a single merged pass over the sorted session snapshot.
	SlotWorkers int
}

// InitialUserMbps seeds each user's throughput estimate before any ACK
// feedback arrives; a fleet also counts a session's demand at it.
const InitialUserMbps = 30

const (
	// emaAlpha is the throughput estimator's smoothing factor.
	emaAlpha = 0.2
	// cacheTiles bounds the in-memory tile buffer.
	cacheTiles = 8192
	// senderBatch is the packet-batching threshold of every session's
	// Sender: tile packets are staged and flushed to the socket in bursts
	// of up to this many datagrams (one flush per queued slot batch at the
	// latest).
	senderBatch = 32
)

// DefaultConfig returns a server configuration with the paper's real-system
// parameters and the given allocator.
func DefaultConfig(alloc core.Allocator) Config {
	return Config{
		Params:       core.DefaultSystemParams(),
		Allocator:    alloc,
		SlotDuration: time.Second / 60,
		BudgetMbps:   400,
	}
}

// UserStats is the server-side view of one user after a run.
type UserStats struct {
	User         uint32
	SlotsServed  int
	TilesSent    int
	TilesSkipped int // suppressed retransmissions (ledger hits)
	Retransmits  int // NACK-driven retransmissions
	BytesSent    int
	MeanLevel    float64
	Delta        float64 // final prediction-success estimate
	EstMbps      float64 // final throughput estimate
}

// Server is the edge server: its decider and the performers around it.
type Server struct {
	*decider
	store *tiles.Store

	udp   net.PacketConn
	tcpLn net.Listener

	stop       chan struct{}
	stopOnce   sync.Once
	loopDone   chan struct{}
	acceptWG   sync.WaitGroup
	prefetchCh chan prefetchReq
	prefetchWG sync.WaitGroup

	// free recycles tileJob batches between the dispatch phase, the NACK
	// path and the send loops so steady-state slots allocate nothing.
	free batchFreeList

	// The dispatch phase's scratch; dispatchFn is bound once, like buildFn.
	dispatchFn func(int)
	plan       []planned
	planSlot   uint32
}

// batchFreeList recycles tileJob batches. put is where a batch dies,
// whoever drops it: it releases every job's store pin, and its zeroing
// drops the payload references, so a parked batch holds no tile bytes.
type batchFreeList chan []tileJob

func (fl batchFreeList) get() []tileJob {
	select {
	case b := <-fl:
		return b
	default:
		return make([]tileJob, 0, 16)
	}
}

func (fl batchFreeList) put(b []tileJob) {
	if b == nil {
		return
	}
	for i := range b {
		b[i].pin.Release()
		b[i] = tileJob{}
	}
	select {
	case fl <- b[:0]:
	default:
	}
}

// prefetchReq asks the prefetcher to warm one cell neighbourhood: the
// session's selection, copied (the next slot's build overwrites it).
type prefetchReq struct {
	cell  tiles.CellID
	level int
	n     int
	sel   [tiles.NumTiles]tiles.TileID
}

type tileJob struct {
	slot    uint32
	id      tiles.VideoID
	payload []byte
	pin     tiles.Pin // holds payload until batchFreeList.put
	// trace is the request's trace ID (0 = untraced); origSlot the slot the
	// ID derives from (a NACK retransmission keeps the original request's
	// trace while transmitting under the current slot); retry the tile's
	// retransmission count.
	trace    uint64
	origSlot uint32
	retry    uint8
	// notBefore holds a retransmission batch until its backoff expires
	// (zero = send immediately).
	notBefore time.Time
}

// enqueue hands a batch to the send loop without blocking: a full queue
// skips its oldest batch (stale VR frames are worthless); after closeSend
// the batch is refused. Reports whether it was queued. The one lock orders
// it against closeSend.
func (s *Server) enqueue(sess *session, batch []tileJob) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.sendClosed {
		return false
	}
	select {
	case sess.sendCh <- batch:
		return true
	default:
	}
	select {
	case old := <-sess.sendCh:
		s.free.put(old)
	default:
	}
	select {
	case sess.sendCh <- batch:
		return true
	default:
		return false
	}
}

// closeSend lets the send loop send what is queued and exit; idempotent.
func (s *Server) closeSend(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !sess.sendClosed {
		sess.sendClosed = true
		close(sess.sendCh)
	}
}

// New creates a server listening on loopback ephemeral ports.
func New(cfg Config) (*Server, error) {
	if cfg.Allocator == nil {
		return nil, errors.New("server: allocator required")
	}
	s := newServer(cfg)
	s.cfg.UDPAddr = cmp.Or(s.cfg.UDPAddr, "127.0.0.1:0")
	s.cfg.TCPAddr = cmp.Or(s.cfg.TCPAddr, "127.0.0.1:0")
	var err error
	if s.udp, err = net.ListenPacket("udp", s.cfg.UDPAddr); err != nil {
		return nil, fmt.Errorf("server: listen udp: %w", err)
	}
	if s.tcpLn, err = net.Listen("tcp", s.cfg.TCPAddr); err != nil {
		s.udp.Close()
		return nil, fmt.Errorf("server: listen tcp: %w", err)
	}
	if s.cfg.PrefetchRadius > 0 {
		s.prefetchCh = make(chan prefetchReq, 64)
		s.prefetchWG.Add(1)
		go s.prefetchLoop()
	}
	s.acceptWG.Add(1)
	go s.acceptLoop()
	go s.slotLoop()
	return s, nil
}

// newServer builds a server without sockets or goroutines: New adds them.
func newServer(cfg Config) *Server {
	s := &Server{
		decider:  newDecider(cfg),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
		free:     make(batchFreeList, 256),
	}
	s.store = tiles.NewStore(s.env.Model, cacheTiles, 1/s.cfg.SlotDuration.Seconds())
	s.store.Instrument(s.metrics.cacheHits, s.metrics.cacheMisses)
	s.dispatchFn = s.dispatch
	return s
}

// prefetchLoop warms the tile cache off the slot loop's critical path.
func (s *Server) prefetchLoop() {
	defer s.prefetchWG.Done()
	for req := range s.prefetchCh {
		r := int32(s.cfg.PrefetchRadius)
		for dx := -r; dx <= r; dx++ {
			for dz := -r; dz <= r; dz++ {
				cell := tiles.CellID{X: req.cell.X + dx, Z: req.cell.Z + dz}
				for _, tile := range req.sel[:req.n] {
					if id, err := tiles.PackVideoID(cell, tile, req.level); err == nil {
						_, pin := s.store.Pin(id)
						pin.Release()
					}
				}
			}
		}
	}
}

// ControlAddr returns the TCP address clients dial.
func (s *Server) ControlAddr() string { return s.tcpLn.Addr().String() }

// Done is closed when the slot loop finishes (after TotalSlots, if set).
func (s *Server) Done() <-chan struct{} { return s.loopDone }

// halt stops admitting sessions and stops the slot clock after the
// in-flight slot, then releases the pool's parked helpers.
func (s *Server) halt() {
	s.tcpLn.Close()
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.loopDone
	s.pool.Close()
}

// Close shuts the server down and waits for its goroutines.
func (s *Server) Close() error {
	sessions, ok := s.shut(false)
	if !ok {
		return nil
	}
	s.halt()
	if s.prefetchCh != nil {
		close(s.prefetchCh)
		s.prefetchWG.Wait()
	}
	for _, sess := range sessions {
		s.hangUp(sess)
	}
	s.acceptWG.Wait()
	return s.udp.Close()
}

// Drain shuts the server down gracefully: stop admitting sessions, stop the
// slot clock after the in-flight slot, let every session's send queue flush
// (bounded by timeout; <= 0 means 5 s), then notify clients by closing their
// control connections. It reports whether every queue flushed in time.
// Follow with Close to release the sockets; Drain-then-Close is the SIGTERM
// path of a crash-safe deployment, where pulling the plug mid-slot would
// strand clients on half-delivered frames.
func (s *Server) Drain(timeout time.Duration) bool {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	sessions, ok := s.shut(true)
	if !ok {
		return true
	}
	s.halt()

	// Closing the send queues lets each sendLoop drain what is already
	// enqueued and exit; the deadline bounds how long a pathologically
	// shaped session can hold the drain hostage.
	for _, sess := range sessions {
		s.closeSend(sess)
	}
	deadline := time.Now().Add(timeout)
	flushed := true
	for _, sess := range sessions {
		select {
		case <-sess.sendDone:
		case <-time.After(max(time.Until(deadline), 0)):
			flushed = false
			s.cfg.Logf("server: drain: user %d send queue not flushed within %v", sess.user, timeout)
		}
	}
	for _, sess := range sessions {
		sess.ctrl.Close()
	}
	s.cfg.Logf("server: drained %d sessions (flushed=%v)", len(sessions), flushed)
	return flushed
}

// recovered handles a panic value captured in one of the server's
// goroutines: it logs the stack, bumps the panic counter and dumps the
// flight recorder's most recent decisions so the post-mortem has the
// allocation context that led up to the crash.
func (s *Server) recovered(where string, r any) {
	buf := make([]byte, 64<<10)
	buf = buf[:runtime.Stack(buf, false)]
	s.metrics.panics.Inc()
	s.cfg.Logf("server: panic in %s: %v\n%s", where, r, buf)
	for _, rec := range s.cfg.Recorder.Recent(3) {
		s.cfg.Logf("server: flight record slot=%d algo=%s levels=%v value=%.3f util=%.3f",
			rec.Slot, rec.Algorithm, rec.Levels, rec.Value, rec.Utilization)
	}
}

// acceptLoop admits client control connections.
func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		raw, err := s.tcpLn.Accept()
		if err != nil {
			return // listener closed
		}
		s.acceptWG.Add(1)
		go func() {
			defer s.acceptWG.Done()
			s.handleConn(transport.NewConn(raw))
		}()
	}
}

// handleConn performs the Hello handshake, admits or rejects the session
// (backpressure), pumps control messages until the client leaves, and then
// retires the session so churn never accumulates state.
func (s *Server) handleConn(ctrl *transport.Conn) {
	accepted := time.Now()
	msg, err := ctrl.Recv()
	if err != nil {
		ctrl.Close()
		return
	}
	hello, ok := msg.(transport.Hello)
	if !ok {
		s.cfg.Logf("server: first message was %T, want Hello", msg)
		ctrl.Close()
		return
	}
	dst, err := net.ResolveUDPAddr("udp", hello.UDPAddr)
	if err != nil {
		s.cfg.Logf("server: bad UDP addr %q: %v", hello.UDPAddr, err)
		ctrl.Close()
		return
	}

	var shaper transport.Shaper
	if s.cfg.ShaperFor != nil {
		shaper = s.cfg.ShaperFor(hello.User)
	}
	sess := &session{
		user:     hello.User,
		ctrl:     ctrl,
		sender:   transport.NewSender(s.udp, dst, shaper, transport.DefaultMTU),
		sendCh:   make(chan []tileJob, 32),
		sendDone: make(chan struct{}),
	}
	sess.sender.SetBatchSize(senderBatch)
	s.metrics.instrumentSender(sess.sender)
	prev, resumed, ok := s.admit(sess)
	if !ok {
		ctrl.Close()
		return
	}
	if prev != nil {
		// A reconnect superseded a live session with the same ID: retire
		// the old one so its goroutines and queues do not leak.
		s.hangUp(prev)
	}
	if !resumed {
		s.cfg.Logf("server: user %d joined from %s", hello.User, hello.UDPAddr)
	}
	s.metrics.sessionSetupMs.Observe(float64(time.Since(accepted)) / float64(time.Millisecond))
	if err := ctrl.Send(transport.Welcome{User: hello.User, Resumed: resumed, Shard: s.cfg.ShardID}); err != nil {
		s.retireSession(sess)
		return
	}

	go func() {
		defer close(sess.sendDone)
		defer s.retireOnPanic("send loop", sess)
		s.sendLoop(sess)
	}()
	func() {
		defer s.retireOnPanic("control loop", sess)
		s.controlLoop(sess)
	}()
	s.retireSession(sess)
}

// retireOnPanic, deferred, turns a panic in a session's goroutine (a bad
// message or estimator sample) into its retirement, not the server's crash.
func (s *Server) retireOnPanic(where string, sess *session) {
	if r := recover(); r != nil {
		s.recovered(fmt.Sprintf("%s (user %d)", where, sess.user), r)
		s.retireSession(sess)
	}
}

// retireSession retires a departed session and hangs it up.
func (s *Server) retireSession(sess *session) {
	s.retire(sess)
	s.hangUp(sess)
}

// hangUp closes a session's control connection and its send queue.
func (s *Server) hangUp(sess *session) {
	sess.ctrl.Close()
	s.closeSend(sess)
}

// sendLoop transmits one slot's tile batch at a time, absorbing the
// shaper's pacing sleeps off the slot loop's critical path. Tiles are
// staged into the sender's packet batch and flushed once per slot batch
// (the sender auto-flushes mid-batch at senderBatch datagrams), so
// the wire sees one burst per slot instead of one syscall cascade per
// tile. Spent batches return to the free list.
func (s *Server) sendLoop(sess *session) {
	for batch := range sess.sendCh {
		if !s.send(sess, batch) {
			return
		}
	}
}

// send transmits one batch and frees it; false on a transmit error.
func (s *Server) send(sess *session, batch []tileJob) bool {
	defer s.free.put(batch)
	if len(batch) == 0 {
		return true
	}
	// A retransmission batch carries its backoff deadline; fresh slot
	// batches have a zero notBefore and pass straight through. The sleep is
	// bounded by the retry policy's Cap (about two slots), so a backoff can
	// delay at most a couple of fresh frames — which the lossy queue in
	// enqueue already treats as droppable.
	if nb := batch[0].notBefore; !nb.IsZero() {
		if d := time.Until(nb); d > 0 {
			time.Sleep(d)
		}
	}
	maxRetry := 0
	for _, job := range batch {
		maxRetry = max(maxRetry, int(job.retry))
	}
	stage := trace.StageSend
	if maxRetry > 0 {
		stage = trace.StageRetry
	}
	sp := s.cfg.Tracer.Start(batch[0].trace, stage, trace.SideServer, sess.user, batch[0].origSlot)
	defer sp.End()
	bytes := 0
	var err error
	for _, job := range batch {
		if err = sess.sender.QueueTileTraced(sess.user, job.slot, job.id, job.payload, job.trace, job.retry); err != nil {
			break
		}
		bytes += len(job.payload)
	}
	if err == nil {
		err = sess.sender.Flush()
	}
	if err != nil {
		sp.SetErr("send-failed")
		return false
	}
	sp.SetTiles(len(batch))
	sp.SetBytes(bytes)
	sp.SetRetry(maxRetry)
	return true
}

// controlLoop consumes pose updates, ACKs and release notices. Every
// message decodes into the one Message, whose tile lists the handlers read
// and do not keep.
func (s *Server) controlLoop(sess *session) {
	var m transport.Message
	for {
		if err := sess.ctrl.RecvInto(&m); err != nil {
			return
		}
		switch m.Kind {
		case transport.KindPoseUpdate:
			s.pose(sess, m.Pose.Pose)
		case transport.KindTileACK, transport.KindNack:
			// Chaos slow-ack: stale feedback is one of the failure modes the
			// estimators must tolerate, so the injection point is right
			// before the estimator fold-in.
			if d := s.cfg.Chaos.AckDelay(); d > 0 {
				time.Sleep(d)
			}
			if m.Kind == transport.KindNack {
				s.handleNack(sess, m.Nack)
			} else {
				s.ack(sess, m.ACK)
			}
		case transport.KindRelease:
			sess.ledger.MarkReleased(m.Release.Tiles...)
		default:
			s.cfg.Logf("server: unexpected control message %T", m.Value())
		}
	}
}

// handleNack fetches and queues the retransmissions the decider picks.
func (s *Server) handleNack(sess *session, nack transport.Nack) {
	batch := s.nack(sess, nack, time.Now(), s.free.get())
	for i := range batch {
		batch[i].payload, batch[i].pin = s.store.Pin(batch[i].id)
	}
	if len(batch) == 0 || !s.enqueue(sess, batch) {
		s.free.put(batch)
	}
}

// slotLoop is the slot clock: one decision and dispatch per tick.
func (s *Server) slotLoop() {
	defer close(s.loopDone)
	ticker := time.NewTicker(s.cfg.SlotDuration)
	defer ticker.Stop()
	for slot := uint32(0); ; slot++ {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		// Chaos server faults ride the slot clock: advance the injector's
		// window and absorb any scheduled pipeline stall before deciding.
		s.cfg.Chaos.Advance(int(slot))
		if d := s.cfg.Chaos.StallFor(); d > 0 {
			time.Sleep(d)
		}
		s.runSlot(slot)
		if s.cfg.TotalSlots > 0 && int(slot)+1 >= s.cfg.TotalSlots {
			return
		}
	}
}

// runSlot decides one slot and dispatches its plan on the pool, outside the
// lock. A panic costs the slot (one frame), not the server.
func (s *Server) runSlot(slot uint32) {
	defer func() {
		if r := recover(); r != nil {
			s.recovered(fmt.Sprintf("slot pipeline (slot %d)", slot), r)
		}
	}()
	started := time.Now()
	s.plan, s.planSlot = s.decide(slot), slot
	if len(s.plan) == 0 {
		return
	}
	elapsed := time.Since(started)
	s.metrics.slotDecisionMs.Observe(float64(elapsed) / float64(time.Millisecond))
	if elapsed > s.cfg.SlotDuration {
		s.metrics.deadlineMiss.Inc()
	}
	s.metrics.cacheHitRatio.Set(s.store.HitRatio())
	s.pool.Run(len(s.plan), step.Grain, s.dispatchFn)
}

// dispatch fetches one planned session's tiles, hands the prefetcher its
// neighbourhood and queues the batch.
func (s *Server) dispatch(i int) {
	p := &s.plan[i]
	slot := s.planSlot
	fsp := s.cfg.Tracer.Start(p.trace, trace.StageFetch, trace.SideServer, p.sess.user, slot)
	batch := s.free.get()
	fetched := 0
	for _, id := range p.ids {
		payload, pin := s.store.Pin(id)
		fetched += len(payload)
		batch = append(batch, tileJob{slot: slot, origSlot: slot, id: id, payload: payload, pin: pin, trace: p.trace})
	}
	fsp.SetTiles(len(batch))
	fsp.SetBytes(fetched)
	fsp.End()

	if s.prefetchCh != nil {
		req := prefetchReq{cell: p.sess.plan.Cell, level: p.level}
		req.n = copy(req.sel[:], p.sess.plan.Sel)
		select {
		case s.prefetchCh <- req:
		default: // prefetcher busy; skip
		}
	}
	if !s.enqueue(p.sess, batch) {
		s.free.put(batch)
		s.cfg.Logf("server: user %d send queue full at slot %d", p.sess.user, slot)
	}
}

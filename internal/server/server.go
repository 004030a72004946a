// Package server implements the edge server of the paper's collaborative VR
// system (Sections V-VI). Per time slot it ingests user poses over TCP,
// predicts each user's next pose, selects the tiles that cover the
// predicted FoV plus margin, builds the per-slot allocation problem (rates
// from the content size model, delays from a polynomial-regression
// predictor, throughput from an EMA estimator) and hands it to any
// core.Allocator. Chosen tiles stream to each user over the RTP-like UDP
// transport, skipping tiles the user already holds.
package server

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/motion"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/step"
	"repro/internal/tiles"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vrmath"
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
	// InitialUserMbps seeds the per-user throughput estimate before any
	// ACK feedback arrives.
	InitialUserMbps float64
	// EMAAlpha is the smoothing factor of the throughput estimator.
	EMAAlpha float64
	// PredictorWindow is the motion-regression window.
	PredictorWindow int
	Coverage        motion.CoverageConfig
	// SizeModelSeed selects the content complexity landscape.
	SizeModelSeed uint64
	// MTU bounds datagram size.
	MTU int
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
	// CacheTiles bounds the in-memory tile buffer.
	CacheTiles int
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
	// CounterfactualK opts recorded decisions into top-K counterfactual
	// capture (the unchosen upgrades of each slot, with reasons); 0 records
	// none. Only meaningful with Recorder.
	CounterfactualK int
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
	// Health runs one health-plane sampling pass per slot on the slot
	// loop's clock, folding Metrics/SLO into the sampler's time-series
	// store; nil disables with one pointer check per slot.
	Health *tsdb.Sampler
	// ShardID identifies this server inside a fleet (0 standalone). It is
	// echoed in every Welcome so clients know which shard serves them, and
	// salts handoff tokens so tokens from different shards never collide.
	ShardID int
	// SlotWorkers shards the slot pipeline's per-session phases
	// (predict/estimate/admit before the merged solve, fetch/dispatch
	// after it) across a persistent worker pool of this total parallelism,
	// the slot loop included. 0 means GOMAXPROCS; 1 runs the pipeline
	// serially inline. Decisions are identical at any setting: the solve
	// itself stays a single merged pass over the sorted session snapshot.
	SlotWorkers int
	// SenderBatch is the transport packet-batching threshold applied to
	// every session's Sender: tile packets are staged and flushed to the
	// socket in bursts of up to this many datagrams (one flush per queued
	// slot batch at the latest). <= 1 writes every packet immediately.
	SenderBatch int
}

// DefaultConfig returns a server configuration with the paper's real-system
// parameters and the given allocator.
func DefaultConfig(alloc core.Allocator) Config {
	return Config{
		Params:          core.DefaultSystemParams(),
		Allocator:       alloc,
		SlotDuration:    time.Second / 60,
		BudgetMbps:      400,
		InitialUserMbps: 30,
		EMAAlpha:        0.2,
		PredictorWindow: motion.DefaultWindow,
		Coverage:        motion.DefaultCoverage(),
		MTU:             transport.DefaultMTU,
		CacheTiles:      8192,
		SenderBatch:     32,
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

// Server is the edge server.
type Server struct {
	cfg     Config
	env     step.Env // what every session's slot step reads; fixed at New
	store   *tiles.Store
	metrics serverMetrics

	udp   net.PacketConn
	tcpLn net.Listener

	mu       sync.Mutex
	sessions map[uint32]*session
	slot     uint32
	// budget is the live value of B(t); it starts at Config.BudgetMbps and
	// a fleet coordinator moves it via SetBudget on rebalance.
	budget float64
	// adopted holds handed-off session state awaiting the client's redial
	// (keyed by user; consumed by the next Hello for that user).
	adopted map[uint32]*HandoffState
	// coordEpoch is the highest coordinator term this shard has witnessed;
	// AdoptSession fences out handoff state stamped by an older (deposed)
	// leader. 0 — the single-replica coordinator's forever-term — disables
	// fencing entirely, keeping the default path byte-identical.
	coordEpoch uint64

	stop         chan struct{}
	stopOnce     sync.Once
	loopDone     chan struct{}
	acceptWG     sync.WaitGroup
	closed       bool
	draining     bool
	prefetchCh   chan prefetchReq
	prefetchFree chan []tiles.TileID
	prefetchWG   sync.WaitGroup

	// pool shards the per-session slot phases (Config.SlotWorkers); free
	// recycles tileJob batches between the slot loop, the NACK path and
	// the send loops so steady-state slots allocate nothing.
	pool *slotPool
	free batchFreeList

	// Slot-loop scratch. The slot loop is the only writer and slots are
	// strictly sequential, so these live across slots unlocked. buildFn
	// and dispatchFn are bound once (method values) so forEach receives
	// the same closure every slot instead of allocating one.
	buildFn    func(int)
	dispatchFn func(int)
	sessBuf    []*session
	planBuf    []slotPlan
	userBuf    []core.UserInput
	probBuf    core.SlotProblem
	cur        slotCtx
}

// slotCtx is the slot-scoped state the pool workers read during a phase;
// the slot loop writes it serially before each forEach barrier.
type slotCtx struct {
	sessions    []*session
	plans       []slotPlan
	slot        uint32
	levels      []int
	decideStart int64
	decideEnd   int64
}

// slotPlan is one session's build-phase verdict: ok when the session has
// posed and its step.Plan (cell, selection, rate ladder — session scratch,
// valid for this slot only) and problem row are built.
type slotPlan struct {
	sess *session
	ok   bool
}

// batchFreeList recycles tileJob batches. A nil list is valid (bare test
// sessions): get falls back to make, put discards. put is where a batch
// dies, whoever drops it: it releases every job's store pin, and its
// zeroing drops the payload references, so a parked batch holds no tile
// bytes.
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

// prefetchReq asks the prefetcher to warm one cell neighbourhood. sel is
// an owned copy (the slot loop reuses its per-session selection scratch
// while the prefetcher runs); it is recycled through prefetchFree.
type prefetchReq struct {
	cell  tiles.CellID
	sel   []tiles.TileID
	level int
}

// session is one connected user.
type session struct {
	user   uint32
	ctrl   *transport.Conn
	sender *transport.Sender
	tracer *trace.Tracer

	mu        sync.Mutex
	pose      vrmath.Pose
	havePose  bool
	predictor *motion.Predictor
	ledger    *tiles.DeliveryLedger
	ema       *estimate.EMA

	// The slot step's state: the h_n estimators (one definition with
	// core.Tracker and the virtual-time sessions; a handoff copies them) and
	// the per-slot plan and delay-table scratch. Stepped by exactly one pool
	// worker per slot (the phase barrier orders slots), under mu.
	step.Session

	// handoff marks a session exported to another shard: retirement keeps
	// the fleet-shared SLO window and breaker state alive (the adopting
	// shard continues them) and counts a handoff instead of a departure.
	handoff bool

	// capSamples is a ring of recent goodput samples; the capacity
	// estimate is their maximum (a BBR-style max filter — goodput of a
	// shaped train only reaches the link rate when the train saturates it,
	// so the mean underestimates while the windowed max tracks it).
	capSamples []float64
	capIdx     int

	// allocated maps recent slots to the level and rate chosen, so ACK
	// feedback can be joined back for the delay regression.
	allocated map[uint32]allocRecord

	// retries counts NACK-driven retransmissions per tile, so each resend
	// carries its attempt number in the packet header; ACKed tiles are
	// forgotten. retryFirst records when each tile was first NACKed, which
	// is what the retry policy's wall-clock budget is measured against.
	retries    map[tiles.VideoID]uint8
	retryFirst map[tiles.VideoID]time.Time
	// rng jitters retransmission backoff (seeded per user so campaigns are
	// reproducible); guarded by mu.
	rng *rand.Rand

	// delaySamples feed the polynomial delay predictor.
	delayRates []float64
	delayMs    []float64

	// free is the server-wide batch free list (nil in bare test sessions).
	free batchFreeList

	// Slot-loop scratch: written by exactly one pool worker per slot (the
	// phase barrier orders slots), so no lock beyond the sections that
	// already take mu. fitter is only used under mu (DelayTableInto).
	modelBuf []float64
	idsBuf   []tiles.VideoID
	fitter   estimate.PolyFitter

	tilesSent    int
	tilesSkipped int
	retransmits  int
	levelSum     int
	slotsServed  int

	sendCh     chan []tileJob
	sendDone   chan struct{}
	sendClosed bool
	retired    bool
}

// enqueue hands a batch to the send loop without blocking: when the queue
// is full the oldest batch is skipped (stale VR frames are worthless), and
// after shutdown the batch is dropped. Reports whether the batch was
// queued.
func (sess *session) enqueue(batch []tileJob) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
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
		sess.free.put(old)
	default:
	}
	select {
	case sess.sendCh <- batch:
		return true
	default:
		return false
	}
}

// closeSend stops the send loop; safe to call once per session.
func (sess *session) closeSend() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if !sess.sendClosed {
		sess.sendClosed = true
		close(sess.sendCh)
	}
}

type allocRecord struct {
	level int
	rate  float64
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

// maxDelaySamples bounds the regression window.
const maxDelaySamples = 240

// maxAllocRecords bounds a session's slot->allocation join map: ACK-less
// sessions (a dead display path, a one-way network) would otherwise grow
// it by one entry per slot forever. When the map reaches the bound, the
// slot loop drops entries older than allocRecordTTL slots — the same
// staleness horizon handleACK applies on the feedback path.
const (
	maxAllocRecords = 256
	allocRecordTTL  = 120
)

// New creates a server listening on loopback ephemeral ports.
func New(cfg Config) (*Server, error) {
	if cfg.Allocator == nil {
		return nil, errors.New("server: allocator required")
	}
	if cfg.SlotDuration <= 0 {
		cfg.SlotDuration = time.Second / 60
	}
	if cfg.MTU <= transport.HeaderSize {
		cfg.MTU = transport.DefaultMTU
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.UDPAddr == "" {
		cfg.UDPAddr = "127.0.0.1:0"
	}
	if cfg.TCPAddr == "" {
		cfg.TCPAddr = "127.0.0.1:0"
	}
	udp, err := net.ListenPacket("udp", cfg.UDPAddr)
	if err != nil {
		return nil, fmt.Errorf("server: listen udp: %w", err)
	}
	tcpLn, err := net.Listen("tcp", cfg.TCPAddr)
	if err != nil {
		udp.Close()
		return nil, fmt.Errorf("server: listen tcp: %w", err)
	}
	model := tiles.NewSizeModel(cfg.SizeModelSeed)
	s := &Server{
		cfg:      cfg,
		metrics:  newServerMetrics(cfg.Metrics),
		env:      step.Env{Model: model, Coverage: cfg.Coverage, SlotMs: cfg.SlotDuration.Seconds() * 1000},
		store:    tiles.NewStore(model, cfg.CacheTiles, 1/cfg.SlotDuration.Seconds()),
		udp:      udp,
		tcpLn:    tcpLn,
		sessions: make(map[uint32]*session),
		budget:   cfg.BudgetMbps,
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	s.store.Instrument(s.metrics.cacheHits, s.metrics.cacheMisses)
	workers := cfg.SlotWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s.pool = newSlotPool(workers)
	s.free = make(batchFreeList, 256)
	s.buildFn = s.buildOne
	s.dispatchFn = s.dispatchOne
	if cfg.PrefetchRadius > 0 {
		s.prefetchCh = make(chan prefetchReq, 64)
		s.prefetchFree = make(chan []tiles.TileID, 64)
		s.prefetchWG.Add(1)
		go s.prefetchLoop()
	}
	s.acceptWG.Add(1)
	go s.acceptLoop()
	go s.slotLoop()
	return s, nil
}

// prefetchLoop warms the tile cache off the slot loop's critical path.
func (s *Server) prefetchLoop() {
	defer s.prefetchWG.Done()
	for req := range s.prefetchCh {
		r := int32(s.cfg.PrefetchRadius)
		for dx := -r; dx <= r; dx++ {
			for dz := -r; dz <= r; dz++ {
				cell := tiles.CellID{X: req.cell.X + dx, Z: req.cell.Z + dz}
				for _, tile := range req.sel {
					if id, err := tiles.PackVideoID(cell, tile, req.level); err == nil {
						_, pin := s.store.Pin(id)
						pin.Release()
					}
				}
			}
		}
		select {
		case s.prefetchFree <- req.sel:
		default:
		}
	}
}

// ControlAddr returns the TCP address clients dial.
func (s *Server) ControlAddr() string { return s.tcpLn.Addr().String() }

// Done is closed when the slot loop finishes (after TotalSlots, if set).
func (s *Server) Done() <-chan struct{} { return s.loopDone }

// signalStop stops the slot loop exactly once (Close and Drain share it).
func (s *Server) signalStop() { s.stopOnce.Do(func() { close(s.stop) }) }

// Close shuts the server down and waits for its goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	s.signalStop()

	s.tcpLn.Close()
	<-s.loopDone
	s.pool.Close()
	if s.prefetchCh != nil {
		close(s.prefetchCh)
		s.prefetchWG.Wait()
	}
	for _, sess := range sessions {
		sess.ctrl.Close()
		sess.closeSend()
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
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return true
	}
	s.draining = true
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	s.tcpLn.Close() // stop admitting new sessions
	s.signalStop()  // no new slots after the in-flight one
	<-s.loopDone
	s.pool.Close() // workers park between slots; release them now

	// Closing the send queues lets each sendLoop drain what is already
	// enqueued and exit; the deadline bounds how long a pathologically
	// shaped session can hold the drain hostage.
	for _, sess := range sessions {
		sess.closeSend()
	}
	deadline := time.Now().Add(timeout)
	flushed := true
	for _, sess := range sessions {
		remain := time.Until(deadline)
		if remain < 0 {
			remain = 0
		}
		select {
		case <-sess.sendDone:
		case <-time.After(remain):
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

// Stats snapshots per-user server-side statistics.
func (s *Server) Stats() []UserStats {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	out := make([]UserStats, 0, len(sessions))
	for _, sess := range sessions {
		sess.mu.Lock()
		st := UserStats{
			User:         sess.user,
			SlotsServed:  sess.slotsServed,
			TilesSent:    sess.tilesSent,
			TilesSkipped: sess.tilesSkipped,
			Retransmits:  sess.retransmits,
			Delta:        sess.Delta(),
			EstMbps:      sess.ema.Value(),
		}
		if sess.slotsServed > 0 {
			st.MeanLevel = float64(sess.levelSum) / float64(sess.slotsServed)
		}
		_, bytes_, _ := sess.sender.Stats()
		st.BytesSent = bytes_
		sess.mu.Unlock()
		out = append(out, st)
	}
	return out
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
		user:       hello.User,
		ctrl:       ctrl,
		sender:     transport.NewSender(s.udp, dst, shaper, s.cfg.MTU),
		tracer:     s.cfg.Tracer,
		predictor:  motion.NewPredictor(s.cfg.PredictorWindow),
		ledger:     tiles.NewDeliveryLedger(),
		ema:        estimate.NewEMA(s.cfg.EMAAlpha),
		allocated:  make(map[uint32]allocRecord),
		retries:    make(map[tiles.VideoID]uint8),
		retryFirst: make(map[tiles.VideoID]time.Time),
		rng:        rand.New(rand.NewSource(int64(hello.User)*2654435761 + 1)),
		sendCh:     make(chan []tileJob, 32),
		sendDone:   make(chan struct{}),
		free:       s.free,
	}
	sess.Sel = make([]tiles.TileID, 0, tiles.NumTiles)
	sess.sender.SetBatchSize(s.cfg.SenderBatch)
	s.metrics.instrumentSender(sess.sender)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ctrl.Close()
		return
	}
	if s.cfg.MaxSessions > 0 && len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.metrics.sessionsRejected.Inc()
		s.cfg.Logf("server: rejecting user %d, session limit %d reached",
			hello.User, s.cfg.MaxSessions)
		ctrl.Close()
		return
	}
	prev := s.sessions[hello.User]
	s.sessions[hello.User] = sess
	// A pending adoption (fleet live migration) is consumed by the first
	// Hello for its user: the redialing client resumes here.
	st := s.adopted[hello.User]
	if st != nil {
		delete(s.adopted, hello.User)
	}
	s.mu.Unlock()
	if prev != nil {
		// A reconnect superseded a live session with the same ID: retire
		// the old one so its goroutines and queues do not leak.
		prev.ctrl.Close()
		prev.closeSend()
	}
	if st != nil {
		sess.resume(st)
		s.metrics.handoffsIn.Inc()
		s.cfg.Logf("server: user %d resumed from shard %d (token %016x)",
			hello.User, st.FromShard, st.Token)
	} else {
		s.cfg.Logf("server: user %d joined from %s", hello.User, hello.UDPAddr)
	}
	s.metrics.sessionsJoined.Inc()
	s.metrics.sessionsActive.Add(1)
	s.metrics.sessionSetupMs.Observe(float64(time.Since(accepted)) / float64(time.Millisecond))
	if err := ctrl.Send(transport.Welcome{
		User:    hello.User,
		Resumed: st != nil,
		Shard:   s.cfg.ShardID,
	}); err != nil {
		s.retireSession(sess)
		return
	}

	go func() {
		defer close(sess.sendDone)
		defer func() {
			if r := recover(); r != nil {
				s.recovered(fmt.Sprintf("send loop (user %d)", sess.user), r)
				s.retireSession(sess)
			}
		}()
		sess.sendLoop()
	}()
	func() {
		// A panic while handling one session's control traffic (a malformed
		// message, a bad estimator sample) must cost that session, not the
		// server: recover, retire, keep serving everyone else.
		defer func() {
			if r := recover(); r != nil {
				s.recovered(fmt.Sprintf("control loop (user %d)", sess.user), r)
			}
		}()
		s.controlLoop(sess)
	}()
	s.retireSession(sess)
}

// retireSession removes a departed session from the slot loop's view and
// releases its resources; with thousands of short sessions this is what
// keeps server state bounded. The final mean viewed quality feeds the
// per-session QoE histogram.
func (s *Server) retireSession(sess *session) {
	// Idempotent: the panic-recovery paths and the normal control-loop exit
	// can both reach here for the same session, and the active-session gauge
	// must only move once.
	sess.mu.Lock()
	if sess.retired {
		sess.mu.Unlock()
		return
	}
	sess.retired = true
	served := sess.slotsServed
	meanQ := sess.MeanQ()
	handedOff := sess.handoff
	sess.mu.Unlock()

	// Counted before the session leaves the map, so an observer that sees it
	// gone sees it counted.
	s.metrics.sessionsActive.Add(-1)
	if handedOff {
		s.metrics.handoffsOut.Inc()
	} else {
		s.metrics.sessionsLeft.Inc()
		if served > 0 {
			s.metrics.sessionMeanQ.Observe(meanQ)
		}
	}

	s.mu.Lock()
	current := false
	if cur, ok := s.sessions[sess.user]; ok && cur == sess {
		delete(s.sessions, sess.user)
		current = true
	}
	s.mu.Unlock()
	if current && !handedOff {
		// Only the current session retires the SLO window and breaker: a
		// superseding reconnect with the same ID keeps accumulating into
		// them (session-resume keeps the QoE history). A handed-off session
		// keeps them too — the adopting shard shares the monitor and
		// continues the windows.
		s.cfg.SLO.Retire(sess.user)
		s.cfg.Breaker.Retire(sess.user)
	}
	sess.ctrl.Close()
	sess.closeSend()
}

// sendLoop transmits one slot's tile batch at a time, absorbing the
// shaper's pacing sleeps off the slot loop's critical path. Tiles are
// staged into the sender's packet batch and flushed once per slot batch
// (the sender auto-flushes mid-batch at Config.SenderBatch datagrams), so
// the wire sees one burst per slot instead of one syscall cascade per
// tile. Spent batches return to the free list.
func (sess *session) sendLoop() {
	for batch := range sess.sendCh {
		if len(batch) == 0 {
			sess.free.put(batch)
			continue
		}
		// A retransmission batch carries its backoff deadline; fresh slot
		// batches have a zero notBefore and pass straight through. The sleep
		// is bounded by the retry policy's Cap (about two slots), so a
		// backoff can delay at most a couple of fresh frames — which the
		// lossy queue in enqueue already treats as droppable.
		if nb := batch[0].notBefore; !nb.IsZero() {
			if d := time.Until(nb); d > 0 {
				time.Sleep(d)
			}
		}
		stage := trace.StageSend
		maxRetry := 0
		for _, job := range batch {
			if int(job.retry) > maxRetry {
				maxRetry = int(job.retry)
			}
		}
		if maxRetry > 0 {
			stage = trace.StageRetry
		}
		sp := sess.tracer.Start(batch[0].trace, stage, trace.SideServer, sess.user, batch[0].origSlot)
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
			sp.End()
			sess.free.put(batch)
			return
		}
		sp.SetTiles(len(batch))
		sp.SetBytes(bytes)
		sp.SetRetry(maxRetry)
		sp.End()
		sess.free.put(batch)
	}
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
			sess.mu.Lock()
			sess.pose = m.Pose.Pose
			sess.havePose = true
			sess.predictor.Observe(m.Pose.Pose)
			sess.mu.Unlock()
		case transport.KindTileACK:
			// Chaos slow-ack: stale feedback is one of the failure modes the
			// estimators must tolerate, so the injection point is right
			// before the estimator fold-in.
			if d := s.cfg.Chaos.AckDelay(); d > 0 {
				time.Sleep(d)
			}
			s.handleACK(sess, m.ACK)
		case transport.KindRelease:
			sess.ledger.MarkReleased(m.Release.Tiles...)
		case transport.KindNack:
			if d := s.cfg.Chaos.AckDelay(); d > 0 {
				time.Sleep(d)
			}
			s.handleNack(sess, m.Nack)
		default:
			s.cfg.Logf("server: unexpected control message %T", m.Value())
		}
	}
}

// handleACK folds client feedback into the estimators and the QoE state.
func (s *Server) handleACK(sess *session, ack transport.TileACK) {
	s.metrics.acks.Inc()
	traceID := trace.TileTraceID(s.cfg.TraceEpoch, sess.user, ack.Slot)
	sp := s.cfg.Tracer.Start(traceID, trace.StageAck, trace.SideServer, sess.user, ack.Slot)
	sp.SetTiles(len(ack.Tiles))
	sp.SetBytes(ack.Bytes)
	if ack.Displayed {
		sp.SetOutcome(trace.OutcomeDisplayed)
	} else {
		sp.SetOutcome(trace.OutcomeMissed)
	}
	defer sp.End()
	for _, id := range ack.Tiles {
		sess.ledger.MarkDelivered(id)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	for _, id := range ack.Tiles {
		delete(sess.retries, id)
		delete(sess.retryFirst, id)
	}

	// Throughput estimate: goodput across the slot's arrival window
	// approximates the bottleneck rate when the link is the constraint.
	// The EMA smooths; the windowed max (see capEstimateLocked) tracks the
	// actual capacity.
	if ack.DelayMs > 0.2 && ack.Bytes > 0 {
		mbps := float64(ack.Bytes) * 8 / (ack.DelayMs / 1000) / 1e6
		// Capacity-estimate error: how far the estimate the allocator
		// used was from the goodput the slot actually measured.
		if prior := sess.capEstimateLocked(s.cfg.InitialUserMbps); prior > 0 {
			rel := (prior - mbps) / mbps
			if rel < 0 {
				rel = -rel
			}
			s.metrics.capEstRelErr.Observe(rel)
		}
		sess.ema.Update(mbps)
		if len(sess.capSamples) < capWindow {
			sess.capSamples = append(sess.capSamples, mbps)
		} else {
			sess.capSamples[sess.capIdx] = mbps
			sess.capIdx = (sess.capIdx + 1) % capWindow
		}
	}

	rec, ok := sess.allocated[ack.Slot]
	if ok {
		delete(sess.allocated, ack.Slot)
		// Streaming QoE state (drives MeanQ and delta of h_n).
		sess.Observe(rec.level, ack.Covered)
		quality := 0.0
		if ack.Displayed {
			quality = float64(rec.level)
		}
		// The breaker rides the SLO's alert state, one observation per
		// ACKed display slot.
		s.cfg.Breaker.Observe(sess.user, s.cfg.SLO.ObserveSlot(sess.user, ack.Displayed, quality))
		// Delay regression sample. A full window drops its oldest sample
		// by copying the rest down, so the window's array is reused and
		// the samples keep their order.
		if ack.DelayMs > 0 {
			if n := len(sess.delayRates); n == maxDelaySamples {
				copy(sess.delayRates, sess.delayRates[1:])
				copy(sess.delayMs, sess.delayMs[1:])
				sess.delayRates = sess.delayRates[:n-1]
				sess.delayMs = sess.delayMs[:n-1]
			}
			sess.delayRates = append(sess.delayRates, rec.rate)
			sess.delayMs = append(sess.delayMs, ack.DelayMs)
		}
	}
	// Drop stale allocation records.
	for slot := range sess.allocated {
		if slot+120 < ack.Slot {
			delete(sess.allocated, slot)
		}
	}
}

// handleNack retransmits tiles the client reported as fragment-lost (the
// Discussion-section loss-handling extension; enabled by RetransmitOnNack).
func (s *Server) handleNack(sess *session, nack transport.Nack) {
	s.metrics.nacks.Inc()
	s.metrics.nackTiles.Add(uint64(len(nack.Tiles)))
	if !s.cfg.RetransmitOnNack {
		return
	}
	// Retransmit under the *current* slot number: the original frame's
	// deadline has passed, but the tile content is per-cell and feeds the
	// client's RAM for upcoming frames.
	s.mu.Lock()
	curSlot := s.slot
	s.mu.Unlock()
	// The retransmission keeps the original request's trace: the NACKed
	// slot derives the ID, so the retry span lands in the same trace as the
	// first transmission and the client's eventual receive.
	traceID := trace.TileTraceID(s.cfg.TraceEpoch, sess.user, nack.Slot)
	policy := s.cfg.RetryPolicy
	now := time.Now()
	batch := s.free.get()
	abandoned := 0
	sess.mu.Lock()
	if sess.retries == nil {
		sess.retries = make(map[tiles.VideoID]uint8)
	}
	if sess.retryFirst == nil {
		sess.retryFirst = make(map[tiles.VideoID]time.Time)
	}
	maxAttempt := 0
	for _, id := range nack.Tiles {
		if sess.ledger.Has(id) {
			continue // already confirmed via a later ACK
		}
		first, seen := sess.retryFirst[id]
		if !seen {
			first = now
			sess.retryFirst[id] = first
		}
		if policy.Abandon(int(sess.retries[id]), now.Sub(first)) {
			// Budget exhausted: give the tile up. The client's slot shows
			// partial content; the ledger/RAM path supplies the cell later.
			abandoned++
			delete(sess.retries, id)
			delete(sess.retryFirst, id)
			continue
		}
		if int(sess.retries[id]) > maxAttempt {
			maxAttempt = int(sess.retries[id])
		}
		if sess.retries[id] < 0xFF {
			sess.retries[id]++
		}
		payload, pin := s.store.Pin(id)
		batch = append(batch, tileJob{
			slot: curSlot, id: id, payload: payload, pin: pin,
			trace: traceID, origSlot: nack.Slot, retry: sess.retries[id],
		})
	}
	var notBefore time.Time
	if len(batch) > 0 && policy.Enabled() {
		// One backoff per batch, sized by the most-retried tile: a batch is
		// one wire transmission, and per-tile staggering would just shred it
		// into per-fragment sends.
		notBefore = now.Add(policy.Backoff(maxAttempt, sess.rng))
		for i := range batch {
			batch[i].notBefore = notBefore
		}
	}
	if len(batch) > 0 {
		sess.retransmits += len(batch)
	}
	sess.mu.Unlock()
	if abandoned > 0 {
		s.metrics.retryAbandoned.Add(uint64(abandoned))
		sp := s.cfg.Tracer.Start(traceID, trace.StageAbandon, trace.SideServer, sess.user, nack.Slot)
		sp.SetTiles(abandoned)
		sp.SetOutcome(trace.OutcomeMissed)
		sp.End()
	}
	if len(batch) == 0 {
		s.free.put(batch)
		return
	}
	s.metrics.retransmits.Add(uint64(len(batch)))
	if !sess.enqueue(batch) {
		s.free.put(batch)
	}
}

// capWindow is the size of the goodput max-filter window (about two
// seconds of ACKed slots at 60 FPS).
const capWindow = 120

// capEstimateLocked returns the session's capacity estimate: the windowed
// maximum of goodput samples, clamped from below by the EMA (caller holds
// sess.mu).
func (sess *session) capEstimateLocked(fallback float64) float64 {
	if len(sess.capSamples) == 0 {
		if sess.ema.Primed() {
			return sess.ema.Value()
		}
		return fallback
	}
	est := sess.capSamples[0]
	for _, v := range sess.capSamples[1:] {
		if v > est {
			est = v
		}
	}
	return est
}

// slotLoop is the per-slot decision pipeline.
func (s *Server) slotLoop() {
	defer close(s.loopDone)
	ticker := time.NewTicker(s.cfg.SlotDuration)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		slot := s.slot
		s.slot++
		budget := s.budget
		s.sessBuf = s.sessBuf[:0]
		for _, sess := range s.sessions {
			s.sessBuf = append(s.sessBuf, sess)
		}
		s.mu.Unlock()
		sessions := s.sessBuf
		// Stable user order: Algorithm 1 breaks score ties toward the
		// lowest index, so the snapshot is sorted by user ID — a tie then
		// goes to the lowest user ID rather than to whoever map iteration
		// order happened to put first this slot.
		slices.SortFunc(sessions, func(a, b *session) int {
			return cmp.Compare(a.user, b.user)
		})

		// Chaos server faults ride the slot clock: advance the injector's
		// window and absorb any scheduled pipeline stall before deciding.
		s.cfg.Chaos.Advance(int(slot))
		if d := s.cfg.Chaos.StallFor(); d > 0 {
			time.Sleep(d)
		}
		if len(sessions) > 0 {
			s.safeRunSlot(slot, sessions, budget)
		}
		// Health sampling rides the same slot clock so the stored series
		// align with decisions; it runs after the slot's outcomes land.
		s.cfg.Health.Sample(int64(slot))
		if s.cfg.TotalSlots > 0 && int(s.slot) >= s.cfg.TotalSlots {
			return
		}
	}
}

// safeRunSlot runs one slot with panic isolation: a crash in the pipeline
// (an allocator bug on a pathological input, say) costs that slot — the
// clients miss one frame — instead of the whole server.
func (s *Server) safeRunSlot(slot uint32, sessions []*session, budget float64) {
	defer func() {
		if r := recover(); r != nil {
			s.recovered(fmt.Sprintf("slot pipeline (slot %d)", slot), r)
		}
	}()
	s.runSlot(slot, sessions, budget)
}

// runSlot predicts, allocates and dispatches one slot. The per-session
// phases are sharded across the slot pool: a parallel build phase fills
// one plan per session (predict, capacity estimate, tile selection, rate
// and delay tables), a serial merged solve decides every user's level in
// one pass, and a parallel dispatch phase admits, fetches and enqueues
// each session's batch. Decisions are independent of SlotWorkers: the
// build phase writes by index, compaction is stable, and the solve sees
// the same sorted problem either way.
func (s *Server) runSlot(slot uint32, sessions []*session, budget float64) {
	started := time.Now()
	s.metrics.slots.Inc()
	s.cur.sessions = sessions
	s.cur.slot = slot
	if cap(s.planBuf) < len(sessions) {
		s.planBuf = make([]slotPlan, len(sessions))
		s.userBuf = make([]core.UserInput, len(sessions))
	}
	s.planBuf = s.planBuf[:len(sessions)]
	s.userBuf = s.userBuf[:len(sessions)]

	s.pool.forEach(len(sessions), s.buildFn)

	// Stable compaction: drop sessions that have not posed yet, keeping
	// the user-ID order the allocator's tie-breaking relies on. The append
	// targets trail the read index, so compacting in place is safe.
	plans, users := s.planBuf[:0], s.userBuf[:0]
	for i := range s.planBuf {
		if s.planBuf[i].ok {
			plans = append(plans, s.planBuf[i])
			users = append(users, s.userBuf[i])
		}
	}
	if len(plans) == 0 {
		return
	}

	s.probBuf = core.SlotProblem{T: int(slot) + 1, Budget: budget, Users: users}
	problem := &s.probBuf
	decideStart := s.cfg.Tracer.Now()
	recording := s.cfg.Recorder.Enabled()
	// Unrecorded, the Levels may alias solver scratch — valid until the next
	// solve, which is the next slot, after dispatch completed.
	allocation, slotTrace := step.Solve(s.cfg.Allocator, s.cfg.Params, problem, recording, s.cfg.CounterfactualK)
	decideEnd := s.cfg.Tracer.Now()
	if recording {
		// The server has no co-running optimum, so the record carries no
		// regret (the attributor falls back to the forgone-gain proxy over
		// the counterfactual alternatives).
		rec := step.Record(s.cfg.Allocator.Name(), s.cfg.Params, int(slot), problem, allocation, slotTrace)
		rec.SessionIDs = make([]uint32, len(plans))
		for i := range plans {
			rec.SessionIDs[i] = plans[i].sess.user
		}
		s.cfg.Recorder.Record(&rec)
	}
	s.metrics.observeDecision(time.Since(started), s.cfg.SlotDuration)
	s.metrics.cacheHitRatio.Set(s.store.HitRatio())

	s.cur.plans = plans
	s.cur.levels = allocation.Levels
	s.cur.decideStart, s.cur.decideEnd = decideStart, decideEnd
	s.pool.forEach(len(plans), s.dispatchFn)
}

// buildOne is the parallel build phase for one session: the slot step on
// the predicted pose, shown the session's capacity estimate and its own
// delay model, into the user input at the session's snapshot index. All
// outputs land on per-session or per-index scratch, so workers never
// contend.
func (s *Server) buildOne(i int) {
	sess := s.cur.sessions[i]
	p := &s.planBuf[i]
	p.sess = sess
	sess.mu.Lock()
	if p.ok = sess.havePose; p.ok {
		sess.Select(&s.env, sess.predictor.Predict())
		s.userBuf[i] = sess.Input(&s.env, sess.capEstimateLocked(s.cfg.InitialUserMbps), sess)
	}
	sess.mu.Unlock()
}

// dispatchOne is the parallel dispatch phase for one planned session:
// breaker clamp, admission against the delivery ledger, payload fetch and
// hand-off to the session's send loop.
func (s *Server) dispatchOne(i int) {
	p := &s.cur.plans[i]
	slot := s.cur.slot
	level := s.cur.levels[i]
	traceID := trace.TileTraceID(s.cfg.TraceEpoch, p.sess.user, slot)
	// Graceful degradation: a tripped breaker caps the session's quality
	// level below what the allocator granted — fidelity is sacrificed
	// before anyone considers dropping the user. The clamp happens after
	// the solve so one struggling session cannot distort the shared
	// budget arithmetic mid-decision.
	if cap_ := s.cfg.Breaker.Cap(p.sess.user); cap_ > 0 && level > cap_ {
		bsp := s.cfg.Tracer.Start(traceID, trace.StageBreaker, trace.SideServer, p.sess.user, slot)
		bsp.SetLevel(cap_)
		bsp.End()
		s.metrics.breakerCapped.Inc()
		level = cap_
	}
	s.metrics.allocLevel.Observe(float64(level))

	// The solve ran once for the whole slot; each planned user's trace
	// records it as its decision stage.
	dsp := s.cfg.Tracer.StartAt(traceID, trace.StageDecide, trace.SideServer, p.sess.user, slot, s.cur.decideStart)
	dsp.SetAlgo(s.cfg.Allocator.Name())
	dsp.SetLevel(level)
	dsp.SetTiles(len(s.cur.plans))
	dsp.EndAt(s.cur.decideEnd)

	// Admission: level assignment plus repetitive-tile suppression
	// against the delivery ledger.
	asp := s.cfg.Tracer.Start(traceID, trace.StageAdmit, trace.SideServer, p.sess.user, slot)
	ids := p.sess.idsBuf[:0]
	skipped := 0
	for _, tile := range p.sess.Sel {
		id, err := tiles.PackVideoID(p.sess.Cell, tile, level)
		if err != nil {
			s.cfg.Logf("server: pack id: %v", err)
			continue
		}
		if p.sess.ledger.Has(id) {
			skipped++
			continue // repetitive-tile suppression
		}
		ids = append(ids, id)
	}
	p.sess.idsBuf = ids
	asp.SetLevel(level)
	asp.SetTiles(len(ids))
	asp.End()

	// Fetch/encode: tile payloads from the store (cache or generate).
	fsp := s.cfg.Tracer.Start(traceID, trace.StageFetch, trace.SideServer, p.sess.user, slot)
	batch := s.free.get()
	fetched := 0
	for _, id := range ids {
		payload, pin := s.store.Pin(id)
		fetched += len(payload)
		batch = append(batch, tileJob{slot: slot, origSlot: slot, id: id, payload: payload, pin: pin, trace: traceID})
	}
	fsp.SetTiles(len(batch))
	fsp.SetBytes(fetched)
	fsp.End()

	p.sess.mu.Lock()
	if len(p.sess.allocated) >= maxAllocRecords {
		for old := range p.sess.allocated {
			if old+allocRecordTTL < slot {
				delete(p.sess.allocated, old)
			}
		}
	}
	p.sess.allocated[slot] = allocRecord{level: level, rate: p.sess.Rates[level-1]}
	p.sess.levelSum += level
	p.sess.slotsServed++
	p.sess.tilesSent += len(batch)
	p.sess.tilesSkipped += skipped
	p.sess.mu.Unlock()
	s.metrics.tilesSent.Add(uint64(len(batch)))
	s.metrics.tilesSkipped.Add(uint64(skipped))

	if s.prefetchCh != nil {
		// Hand the prefetcher an owned copy of the selection: the session's
		// own is scratch the next slot's build overwrites.
		var sel []tiles.TileID
		select {
		case sel = <-s.prefetchFree:
		default:
		}
		sel = append(sel[:0], p.sess.Sel...)
		select {
		case s.prefetchCh <- prefetchReq{cell: p.sess.Cell, sel: sel, level: level}:
		default: // prefetcher busy; skip
			select {
			case s.prefetchFree <- sel:
			default:
			}
		}
	}
	if !p.sess.enqueue(batch) {
		s.free.put(batch)
		s.cfg.Logf("server: user %d send queue full at slot %d", p.sess.user, slot)
	}
}

// DelayTableInto is the server's delay model (a step.DelayModel): it
// predicts the delivery delay of each ladder rate from the two delay sources
// the paper uses, the polynomial regression over measured ACK delays
// (Section V) and the analytic M/M/1 queueing model at the estimated
// capacity (Section II / eq. (13)). The measured samples are bounded by the
// slot pipeline, so they cannot reveal the queueing cliff at the link
// capacity; the M/M/1 term restores it, which is what keeps the allocator
// from riding the estimate into overload. The M/M/1 table lands in
// sess.modelBuf and the regression runs on the session's PolyFitter, so a
// steady-state call allocates nothing. len(out) must equal len(rates); the
// caller holds sess.mu (delayRates/fitter are mu-guarded).
func (sess *session) DelayTableInto(out, rates []float64, capMbps, slotMs float64) {
	if len(sess.modelBuf) < len(rates) {
		sess.modelBuf = make([]float64, len(rates))
	}
	model := sess.modelBuf[:len(rates)]
	netem.DelayTableMsInto(model, rates, capMbps, slotMs)
	if len(sess.delayRates) < 12 {
		copy(out, model)
		return
	}
	fit, err := sess.fitter.Fit(sess.delayRates, sess.delayMs, 2)
	if err != nil {
		copy(out, model)
		return
	}
	for i, r := range rates {
		d := fit.Predict(r)
		if d < 0 {
			d = 0
		}
		// Within the measured operating region trust the regression; near
		// and beyond the estimated capacity impose the queueing cliff.
		if r > 0.85*capMbps && model[i] > d {
			d = model[i]
		}
		out[i] = d
	}
}

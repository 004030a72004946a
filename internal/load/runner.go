package load

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/transport"
)

// loadMetrics bundles the harness's own instruments; all nil-safe.
type loadMetrics struct {
	spawned   *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	active    *obs.Gauge
	setupMs   *obs.Histogram
	qoe       *obs.Histogram
	missFrac  *obs.Histogram
}

func newLoadMetrics(r *obs.Registry) loadMetrics {
	return loadMetrics{
		spawned:   r.Counter("collabvr_loadgen_sessions_spawned_total"),
		completed: r.Counter("collabvr_loadgen_sessions_completed_total"),
		failed:    r.Counter("collabvr_loadgen_sessions_failed_total"),
		active:    r.Gauge("collabvr_loadgen_sessions_active"),
		setupMs:   r.Histogram("collabvr_loadgen_session_setup_ms", obs.DefaultLatencyBuckets()),
		qoe:       r.Histogram("collabvr_loadgen_session_qoe", obs.LinearBuckets(-2, 0.5, 20)),
		missFrac:  r.Histogram("collabvr_loadgen_session_deadline_miss_frac", obs.LinearBuckets(0.01, 0.05, 20)),
	}
}

// observeOutcome feeds one completed session into the histograms.
func (m *loadMetrics) observeOutcome(o SessionOutcome) {
	m.qoe.Observe(o.QoE)
	m.missFrac.Observe(o.MissFrac)
	if o.SetupMs > 0 {
		m.setupMs.Observe(o.SetupMs)
	}
}

// LiveConfig parametrizes a live workload execution: a real
// internal/server.Server on loopback sockets, one emulated client per
// session, per-session token-bucket shaping driven by each session's
// assigned network trace.
type LiveConfig struct {
	Params core.Params
	// NewAllocator builds the server's allocator; nil means the paper's
	// proposed algorithm.
	NewAllocator func() core.Allocator
	AllocName    string
	BudgetMbps   float64
	// SlotDuration is the real-time slot length (default: derived from the
	// workload's SlotsPerSecond). Scaling it up slows real time without
	// changing the decision pipeline — useful when a machine cannot sustain
	// 60 Hz for thousands of clients.
	SlotDuration time.Duration
	// MaxSessions forwards to server.Config.MaxSessions (accept
	// backpressure); 0 means unlimited.
	MaxSessions int
	// LossProb injects i.i.d. packet loss per session (0 = lossless).
	LossProb float64
	// Unshaped disables per-session token buckets (pure server-limit runs).
	Unshaped bool
	// Metrics receives server, client and harness instruments (shared
	// registry); nil disables.
	Metrics *obs.Registry
	// Recorder receives the server's per-slot decision records; nil
	// disables.
	Recorder *obs.Recorder
	// Tracer receives end-to-end request spans from the server pipeline and
	// every emulated client; nil disables tracing.
	Tracer *trace.Tracer
	// TraceEpoch salts deterministic trace-ID derivation (distinguishes
	// runs sharing an exporter).
	TraceEpoch uint64
	// SLO, when non-nil, tracks per-session deadline-miss and stall burn
	// rates from client ACKs.
	SLO *obs.SLOMonitor
	// Chaos, when non-nil, injects the profile's faults: per-session packet
	// faults and capacity cliffs ride the shaped transmit path (so Unshaped
	// disables them), server stall/slow-ACK faults hit the slot pipeline.
	Chaos *chaos.Profile
	// Breaker, when non-nil, is handed to the server for SLO-driven quality
	// capping; requires SLO.
	Breaker *obs.Breaker
	// RetryPolicy forwards to server.Config.RetryPolicy (NACK backoff and
	// abandonment); zero keeps immediate retransmission.
	RetryPolicy transport.RetryPolicy
	// Reconnect enables the clients' control-channel redial path.
	Reconnect bool
	// DrainTimeout, when positive, gracefully drains the server (flush
	// in-flight slots) before closing it at the end of the run.
	DrainTimeout time.Duration
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

func (c LiveConfig) withDefaults(sps float64) LiveConfig {
	if c.Params.Levels == 0 {
		c.Params = core.DefaultSystemParams()
	}
	if c.NewAllocator == nil {
		c.NewAllocator = func() core.Allocator { return core.NewSolverAllocator() }
		if c.AllocName == "" {
			c.AllocName = "proposed"
		}
	}
	if c.AllocName == "" {
		c.AllocName = "custom"
	}
	if c.BudgetMbps <= 0 {
		c.BudgetMbps = 400
	}
	if c.SlotDuration <= 0 {
		c.SlotDuration = time.Duration(float64(time.Second) / sps)
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// sessionNet is the per-session transmit path: the session's token bucket
// (rate driven by its network trace), optional i.i.d. loss, and optional
// chaos faults. It implements transport.Shaper, and transport.FaultInjector
// by delegation — the Sender detects the latter and consults it per packet.
type sessionNet struct {
	bucket *netem.TokenBucket
	loss   *netem.LossModel
	inj    *chaos.Injector // nil without a chaos profile
	caps   []float64
}

func (n *sessionNet) Admit(size int, now time.Time) time.Duration { return n.bucket.Admit(size, now) }
func (n *sessionNet) Drop() bool {
	if n.loss == nil {
		return false
	}
	return n.loss.Drop()
}
func (n *sessionNet) PacketFault() transport.PacketFault { return n.inj.PacketFault() }

// newSessionNets builds every session's shaping state before any server
// starts, so ShaperFor is a pure lookup; it is keyed by session, so it follows
// a session across shards. Empty when the run is unshaped.
func newSessionNets(w *Workload, cfg LiveConfig, start time.Time) map[uint32]*sessionNet {
	nets := make(map[uint32]*sessionNet, len(w.Sessions))
	if cfg.Unshaped {
		return nets
	}
	for _, spec := range w.Sessions {
		caps := w.CapSlots(spec)
		n := &sessionNet{
			bucket: netem.NewTokenBucket(caps[0], 16<<10, start),
			caps:   caps,
		}
		if cfg.LossProb > 0 {
			n.loss = netem.NewLossModel(cfg.LossProb, w.Cfg.Seed+int64(spec.ID)*131)
		}
		n.inj = chaos.NewInjector(cfg.Chaos, spec.ID)
		nets[spec.ID] = n
	}
	return nets
}

// driveNets moves each launched session's shaping rate along its network
// trace at slot.
func driveNets(nets map[uint32]*sessionNet, launched []SessionSpec, slot int, now time.Time) {
	if len(nets) == 0 {
		return
	}
	for _, spec := range launched {
		local := slot - spec.ArriveSlot
		n := nets[spec.ID]
		if local < 0 || local >= len(n.caps) {
			continue
		}
		n.inj.Advance(slot)
		// Cliffs scale the shaped rate; blackouts drop on the packet path
		// instead (a zero-rate bucket would stall Admit for an hour, not a
		// fault window).
		rate := n.caps[local] * n.inj.CapFactor()
		if rate != n.bucket.Rate() {
			n.bucket.SetRate(rate, now)
		}
	}
}

// serverConfig is the server a live run's config describes, less its budget:
// RunLive starts one, RunLiveFleet one per shard from this template.
func (cfg LiveConfig) serverConfig(w *Workload, alloc core.Allocator, nets map[uint32]*sessionNet) server.Config {
	sc := server.DefaultConfig(alloc)
	sc.Params = cfg.Params
	sc.SlotDuration = cfg.SlotDuration
	sc.TotalSlots = w.Cfg.HorizonSlots
	sc.MaxSessions = cfg.MaxSessions
	sc.Metrics = cfg.Metrics
	sc.Recorder = cfg.Recorder
	sc.Tracer = cfg.Tracer
	sc.TraceEpoch = cfg.TraceEpoch
	sc.SLO = cfg.SLO
	sc.Breaker = cfg.Breaker
	sc.RetryPolicy = cfg.RetryPolicy
	sc.Chaos = chaos.NewServerInjector(cfg.Chaos)
	sc.Logf = cfg.Logf
	if !cfg.Unshaped {
		sc.ShaperFor = func(user uint32) transport.Shaper {
			if n, ok := nets[user]; ok {
				return n
			}
			return nil
		}
	}
	return sc
}

// clientConfig is the emulated client of one session, dialling addr.
func (cfg LiveConfig) clientConfig(w *Workload, spec SessionSpec, addr string) client.Config {
	ccfg := client.DefaultConfig(spec.ID, addr, w.MotionTrace(spec, 64))
	ccfg.SlotDuration = cfg.SlotDuration
	ccfg.Params = metrics.QoEParams{Alpha: cfg.Params.Alpha, Beta: cfg.Params.Beta}
	ccfg.Slots = spec.Slots()
	ccfg.Metrics = cfg.Metrics
	ccfg.Tracer = cfg.Tracer
	ccfg.Reconnect = cfg.Reconnect
	return ccfg
}

// liveTally is a live run's session accounting: client goroutines report
// into the run's RunReport and load metrics under one lock.
type liveTally struct {
	mu     sync.Mutex
	active int
	report *RunReport
	lm     loadMetrics
}

func (t *liveTally) start() {
	t.mu.Lock()
	t.active++
	if t.active > t.report.PeakConcurrent {
		t.report.PeakConcurrent = t.active
	}
	t.mu.Unlock()
	t.lm.active.Add(1)
	t.lm.spawned.Inc()
}

func (t *liveTally) end(res *client.Result, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.active--
	t.lm.active.Add(-1)
	if err != nil || res == nil || res.Slots == 0 {
		// Errored, or rejected by backpressure before serving a slot.
		t.report.Failed++
		t.lm.failed.Inc()
		return
	}
	out := SessionOutcome{
		ID:       res.User,
		Slots:    res.Slots,
		QoE:      res.Report.QoE,
		Quality:  res.Report.Quality,
		DelayMs:  res.Report.Delay,
		Variance: res.Report.Variance,
		Coverage: res.Report.Coverage,
		MissFrac: 1 - res.Report.FPSFrac,
		SetupMs:  res.SetupMs,
	}
	t.report.Outcomes = append(t.report.Outcomes, out)
	t.report.Completed++
	t.lm.completed.Inc()
	t.lm.observeOutcome(out)
}

// RunLive executes the workload against a live server over loopback
// sockets. Sessions are launched on a real-time slot clock at their arrival
// slots, run as independent client goroutines for their configured
// duration, and report their client-observed QoE on completion. The run
// ends when the horizon's slots have elapsed on the server; stragglers are
// drained by the server shutdown.
func RunLive(w *Workload, cfg LiveConfig) (*RunReport, error) {
	if len(w.Sessions) == 0 {
		return nil, fmt.Errorf("load: empty workload")
	}
	sps := w.Cfg.SlotsPerSecond
	if sps <= 0 {
		sps = 60
	}
	cfg = cfg.withDefaults(sps)
	start := time.Now()
	lm := newLoadMetrics(cfg.Metrics)

	nets := newSessionNets(w, cfg, start)
	srvCfg := cfg.serverConfig(w, cfg.NewAllocator(), nets)
	srvCfg.BudgetMbps = cfg.BudgetMbps
	srv, err := server.New(srvCfg)
	if err != nil {
		return nil, err
	}

	report := &RunReport{
		Mode:         "live",
		Algorithm:    cfg.AllocName,
		HorizonSlots: w.Cfg.HorizonSlots,
		Spawned:      len(w.Sessions),
	}

	var wg sync.WaitGroup
	tally := liveTally{report: report, lm: lm}

	launch := func(spec SessionSpec) {
		tally.start()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := client.Run(cfg.clientConfig(w, spec, srv.ControlAddr()))
			if err != nil {
				cfg.Logf("loadgen: session %d: %v", spec.ID, err)
			}
			tally.end(res, err)
		}()
	}

	// Slot-clock scheduler: launches arrivals and drives each active
	// session's shaping rate along its network trace.
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		ticker := time.NewTicker(cfg.SlotDuration)
		defer ticker.Stop()
		slot := 0
		next := 0
		for slot < w.Cfg.HorizonSlots {
			select {
			case <-srv.Done():
				return
			case now := <-ticker.C:
				for next < len(w.Sessions) && w.Sessions[next].ArriveSlot <= slot {
					launch(w.Sessions[next])
					next++
				}
				driveNets(nets, w.Sessions[:next], slot, now)
				slot++
			}
		}
	}()

	<-srv.Done()
	<-schedDone
	if cfg.DrainTimeout > 0 {
		if !srv.Drain(cfg.DrainTimeout) {
			cfg.Logf("loadgen: drain timed out with unflushed sessions")
		}
	}
	if err := srv.Close(); err != nil {
		cfg.Logf("loadgen: server close: %v", err)
	}
	wg.Wait()
	report.WallSec = time.Since(start).Seconds()
	sortOutcomes(report.Outcomes)
	if h := cfg.Metrics.Histogram("collabvr_server_slot_decision_ms", obs.DefaultLatencyBuckets()); h.Count() > 0 {
		report.SlotDecisionP50Ms = h.Quantile(0.50)
		report.SlotDecisionP99Ms = h.Quantile(0.99)
	}
	return report, nil
}

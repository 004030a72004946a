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
func (m *loadMetrics) observeOutcome(o sessionOutcome) {
	m.qoe.Observe(o.QoE)
	m.missFrac.Observe(o.MissFrac)
	if o.SetupMs > 0 {
		m.setupMs.Observe(o.SetupMs)
	}
}

// LiveConfig parametrizes a live workload execution: a real
// internal/server.Server on loopback sockets, one emulated client per
// session, per-session token-bucket shaping driven by each session's
// assigned network trace or by a Topology.
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
	// Topology, when non-nil, shapes a (shaped) run as the paper's testbed
	// instead of by the sessions' network traces.
	Topology *Topology
	// Metrics receives server, client and harness instruments (shared
	// registry); nil disables.
	Metrics *obs.Registry
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
	// RetryPolicy, when enabled, turns loss handling on: clients NACK lost
	// tiles and the server retransmits them under it. Zero sends no NACK.
	RetryPolicy transport.RetryPolicy
	// Reconnect enables the clients' control-channel redial path.
	Reconnect bool
	// DrainTimeout, when positive, gracefully drains the server (flush
	// in-flight slots) before closing it at the end of the run.
	DrainTimeout time.Duration
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

func (c LiveConfig) withDefaults(w *Workload) LiveConfig {
	// The allocator and budget default as in the virtual-time engine.
	d := SimConfig{Params: c.Params, NewAllocator: c.NewAllocator, AllocName: c.AllocName, BudgetMbps: c.BudgetMbps}.withDefaults()
	c.Params, c.NewAllocator, c.AllocName, c.BudgetMbps = d.Params, d.NewAllocator, d.AllocName, d.BudgetMbps
	if c.SlotDuration <= 0 {
		c.SlotDuration = time.Second / 60
		if sps := w.Cfg.SlotsPerSecond; sps > 0 {
			c.SlotDuration = time.Duration(float64(time.Second) / sps)
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// sessionNet is the per-session transmit path: the session's token bucket
// (rate driven along caps), a Topology's router behind it, optional i.i.d.
// loss and chaos faults. It implements transport.Shaper, and
// transport.FaultInjector by delegation, which the Sender consults per packet.
type sessionNet struct {
	bucket *netem.TokenBucket
	router *netem.TokenBucket // nil without a Topology
	loss   *netem.LossModel
	inj    *chaos.Injector // nil without a chaos profile
	caps   []float64
}

// Admit charges the packet to the session's link and its router; it waits
// for the slower of the two.
func (n *sessionNet) Admit(size int, now time.Time) time.Duration {
	wait := n.bucket.Admit(size, now)
	if n.router != nil {
		wait = max(wait, n.router.Admit(size, now))
	}
	return wait
}

func (n *sessionNet) Drop() bool {
	if n.loss == nil {
		return false
	}
	return n.loss.Drop()
}
func (n *sessionNet) PacketFault() transport.PacketFault { return n.inj.PacketFault() }

// newSessionNets builds every session's shaping state before any server
// starts, so ShaperFor is a pure lookup; it is keyed by session, so it follows
// a session across shards. Empty when the run is unshaped. A Topology's cap
// table, drawn from the workload seed + 1, replaces the network traces.
func newSessionNets(w *Workload, cfg LiveConfig, start time.Time) (map[uint32]*sessionNet, error) {
	nets := make(map[uint32]*sessionNet, len(w.Sessions))
	topo := cfg.Topology
	if topo != nil && (cfg.Unshaped || topo.Routers < 1 || len(topo.Throttles) == 0) {
		return nil, fmt.Errorf("load: a Topology needs a shaped run, routers and throttles")
	}
	if cfg.Unshaped {
		return nets, nil
	}
	var table [][]float64
	var routers []*netem.TokenBucket
	if topo != nil {
		table = topo.caps(len(w.Sessions), w.Cfg.HorizonSlots, w.Cfg.Seed+1)
		for range topo.Routers {
			routers = append(routers, netem.NewTokenBucket(cfg.BudgetMbps/float64(topo.Routers), routerBurst, start))
		}
	}
	for i, spec := range w.Sessions {
		n := &sessionNet{}
		if topo != nil {
			n.caps = table[i][spec.ArriveSlot:spec.DepartSlot]
			n.router = routers[i%topo.Routers]
		} else {
			n.caps = w.CapSlots(spec)
		}
		n.bucket = netem.NewTokenBucket(n.caps[0], linkBurst, start)
		if cfg.LossProb > 0 {
			n.loss = netem.NewLossModel(cfg.LossProb, w.Cfg.Seed+int64(spec.ID)*131)
		}
		n.inj = chaos.NewInjector(cfg.Chaos, spec.ID)
		nets[spec.ID] = n
	}
	return nets, nil
}

// driveNets moves each launched session's shaping rate along its caps at
// slot.
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
	sc.SizeModelSeed = uint64(w.Cfg.Seed)
	sc.MaxSessions = cfg.MaxSessions
	sc.Metrics = cfg.Metrics
	sc.Tracer = cfg.Tracer
	sc.TraceEpoch = cfg.TraceEpoch
	sc.SLO = cfg.SLO
	sc.Breaker = cfg.Breaker
	sc.RetryPolicy = cfg.RetryPolicy
	sc.RetransmitOnNack = cfg.RetryPolicy.Enabled()
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
	ccfg.NackLost = cfg.RetryPolicy.Enabled()
	return ccfg
}

// liveRig is what RunLive and RunLiveFleet share: the defaulted config, the
// sessions' transmit paths, and the client goroutines, which report into the
// run's RunReport and load metrics under mu.
type liveRig struct {
	w       *Workload
	cfg     LiveConfig
	started time.Time
	nets    map[uint32]*sessionNet
	next    int // the first session not yet launched
	wg      sync.WaitGroup

	mu     sync.Mutex
	active int
	report *RunReport
	lm     loadMetrics
}

// newLiveRig defaults cfg for w, builds the sessions' transmit paths and
// starts the report's session accounting.
func newLiveRig(w *Workload, cfg LiveConfig, report *RunReport) (*liveRig, error) {
	if len(w.Sessions) == 0 {
		return nil, fmt.Errorf("load: empty workload")
	}
	r := &liveRig{w: w, cfg: cfg.withDefaults(w), started: time.Now(), report: report}
	r.lm = newLoadMetrics(r.cfg.Metrics)
	report.Algorithm, report.HorizonSlots, report.Spawned = r.cfg.AllocName, w.Cfg.HorizonSlots, len(w.Sessions)
	var err error
	r.nets, err = newSessionNets(w, r.cfg, r.started)
	return r, err
}

// arrive launches every session arriving by slot, then moves the launched
// sessions' links along their caps.
func (r *liveRig) arrive(slot int, now time.Time, launch func(SessionSpec)) {
	for r.next < len(r.w.Sessions) && r.w.Sessions[r.next].ArriveSlot <= slot {
		launch(r.w.Sessions[r.next])
		r.next++
	}
	driveNets(r.nets, r.w.Sessions[:r.next], slot, now)
}

// run plays a session on its own goroutine; play runs its client.
func (r *liveRig) run(id uint32, play func() (*client.Result, error)) {
	r.mu.Lock()
	r.active++
	r.report.PeakConcurrent = max(r.report.PeakConcurrent, r.active)
	r.mu.Unlock()
	r.lm.active.Add(1)
	r.lm.spawned.Inc()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		res, err := play()
		if err != nil {
			r.cfg.Logf("loadgen: session %d: %v", id, err)
		}
		r.end(res, err)
	}()
}

func (r *liveRig) end(res *client.Result, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active--
	r.lm.active.Add(-1)
	if err != nil || res == nil || res.Slots == 0 {
		// Errored, or rejected by backpressure before serving a slot.
		r.report.Failed++
		r.lm.failed.Inc()
		return
	}
	out := sessionOutcome{
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
	r.report.Outcomes = append(r.report.Outcomes, out)
	r.report.Completed++
	r.lm.completed.Inc()
	r.lm.observeOutcome(out)
}

// finish waits for every client and completes the report.
func (r *liveRig) finish() {
	r.wg.Wait()
	r.report.WallSec = time.Since(r.started).Seconds()
	sortOutcomes(r.report.Outcomes)
	if h := r.cfg.Metrics.Histogram("collabvr_server_slot_decision_ms", obs.DefaultLatencyBuckets()); h.Count() > 0 {
		r.report.SlotDecisionP50Ms = h.Quantile(0.50)
		r.report.SlotDecisionP99Ms = h.Quantile(0.99)
	}
}

// RunLive executes the workload against a live server over loopback
// sockets. Sessions are launched on a real-time slot clock at their arrival
// slots, run as independent client goroutines for their configured
// duration, and report their client-observed QoE on completion. The run
// ends when the horizon's slots have elapsed on the server; stragglers are
// drained by the server shutdown.
func RunLive(w *Workload, cfg LiveConfig) (*RunReport, error) {
	report := &RunReport{Mode: "live"}
	rig, err := newLiveRig(w, cfg, report)
	if err != nil {
		return nil, err
	}
	cfg = rig.cfg
	srvCfg := cfg.serverConfig(w, cfg.NewAllocator(), rig.nets)
	srvCfg.BudgetMbps = cfg.BudgetMbps
	srv, err := server.New(srvCfg)
	if err != nil {
		return nil, err
	}
	launch := func(spec SessionSpec) {
		rig.run(spec.ID, func() (*client.Result, error) {
			return client.Run(cfg.clientConfig(w, spec, srv.ControlAddr()))
		})
	}

	// Slot k starts k slot durations after the server: slot-0 sessions join
	// before its first slot (a tick later halves a testbed user's QoE, the
	// client's display clock never catching up with the server's slots).
	ticker := time.NewTicker(cfg.SlotDuration)
	now := time.Now()
clock:
	for slot := 0; slot < w.Cfg.HorizonSlots; slot++ {
		rig.arrive(slot, now, launch)
		select {
		case <-srv.Done():
			break clock
		case now = <-ticker.C:
		}
	}
	ticker.Stop()

	<-srv.Done()
	report.serverStats = srv.Stats()
	if cfg.DrainTimeout > 0 {
		if !srv.Drain(cfg.DrainTimeout) {
			cfg.Logf("loadgen: drain timed out with unflushed sessions")
		}
	}
	if err := srv.Close(); err != nil {
		cfg.Logf("loadgen: server close: %v", err)
	}
	rig.finish()
	return report, nil
}

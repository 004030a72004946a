package load

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/motion"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/step"
	"repro/internal/trace"
)

// SimConfig parametrizes the deterministic virtual-time engines. No wall
// clock, no sockets, no goroutines at rest: the same workload and config
// always produce the bit-identical report, which is what makes recorded
// workloads usable as regression reproducers. Workers spreads the per-slot
// work that shares nothing across goroutines — in Simulate the build phase,
// each goroutine writing only its own sessions' indices before one serial
// solve; in SimulateFleet whole shards, each building, solving, settling and
// observing on its own scratch — and everything order-sensitive stays on one
// goroutine in a fixed order, so the report is bit-identical at any worker
// count.
type SimConfig struct {
	Params core.Params
	// NewAllocator builds the allocator (fresh per run, since some keep
	// state). Nil means the paper's proposed algorithm. SimulateFleet calls
	// it once per shard and runs the results concurrently, one goroutine to
	// an allocator at a time: an allocator needs no locking of its own, but
	// whatever the instances of one factory share (a counter, a log) does.
	NewAllocator func() core.Allocator
	// AllocName labels the report.
	AllocName string
	// BudgetMbps is the server's shared throughput budget B(t).
	BudgetMbps float64
	// DeadlineSlots is the display-pipeline tolerance: a frame whose
	// delivery delay exceeds DeadlineSlots slot-times misses its deadline
	// (default 2, matching the decode-at-t+1/display-at-t+2 pipelining).
	DeadlineSlots   int
	PredictorWindow int
	Coverage        motion.CoverageConfig
	SizeModelSeed   uint64
	// Metrics, when non-nil, receives the loadgen histograms (per-session
	// QoE, deadline-miss fraction).
	Metrics *obs.Registry
	// Tracer, when non-nil, emits the same span schema as the live engine,
	// on the virtual slot clock: slot boundaries become span timestamps, so
	// a sim run and a live run are analyzable by the same tooling. The
	// slot.decide span's duration is the measured wall time of the solve
	// (the one real cost inside a virtual-time slot); all transport spans
	// are purely virtual.
	Tracer *trace.Tracer
	// TraceEpoch salts trace-ID derivation, as in LiveConfig.
	TraceEpoch uint64
	// SLO, when non-nil, is fed each session's per-slot display outcome.
	SLO *obs.SLOMonitor
	// Chaos, when non-nil, injects the profile's faults into the virtual
	// network (per-session capacity cliffs, blackouts, slot drops) and the
	// virtual server (stall, slow ACK, both charged as delay).
	Chaos *chaos.Profile
	// Breaker, when non-nil, caps each session's allocated quality while
	// its SLO burns (graceful degradation: quality drops before users do).
	// Requires SLO, whose state feeds the breaker every slot.
	Breaker *obs.Breaker
	// Recorder, when non-nil, receives one decision SlotRecord per allocated
	// slot, with stable SessionIDs (indices shift under churn, IDs do not)
	// and the per-user objective decomposition.
	Recorder *obs.Recorder
	// CounterfactualK opts recorded decisions into top-K counterfactual
	// capture on heap-solver allocators (see core.SlotTrace.TopK). Zero
	// records no alternatives.
	CounterfactualK int
	// RegretRef, when set with Recorder, re-solves every recorded slot with
	// the pseudo-polynomial DP optimum and fills the record's regret fields
	// (OptimalValue, Regret, UserRegret) against it.
	RegretRef bool
	// RegretResolution is the DP budget grid step (<= 0: budget/2048).
	RegretResolution float64
	// Workers bounds the goroutines a slot's fork-join may use. Simulate
	// shards the build phase (prediction, tile selection, rate/delay tables,
	// per-session chaos advance, lowering) by session index and keeps the
	// merged solve and the outcome accounting serial; SimulateFleet steps
	// whole shards (arrival set-up, build, solve, settle, and each session's
	// SLO and breaker observation) and keeps the float sums, the recorder and
	// the control plane's tallies serial. The report is bit-identical at any
	// setting.
	// 0 means GOMAXPROCS; 1 keeps the engine fully serial and spawns nothing.
	Workers int
	// Health, when non-nil, runs one health-sampler pass per virtual slot
	// (after the slot's outcomes have landed in Metrics/SLO), so the sim
	// produces the same multi-resolution series schema as a live server.
	Health *tsdb.Sampler
}

func (c SimConfig) withDefaults() SimConfig {
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
	if c.DeadlineSlots <= 0 {
		c.DeadlineSlots = 2
	}
	if c.PredictorWindow <= 0 {
		c.PredictorWindow = motion.DefaultWindow
	}
	if c.Coverage == (motion.CoverageConfig{}) {
		c.Coverage = motion.DefaultCoverage()
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// Simulate replays the workload through the full per-slot decision pipeline
// (prediction, tile selection, rate tables, M/M/1 delay, allocation) in
// virtual time, with session churn: sessions join the allocation problem at
// their arrival slot and leave at departure. Overload is modelled on the
// shared egress: when the allocated total exceeds the budget, the excess
// serialization time is charged to every active session's delay.
//
// Session set-up at arrival and the per-slot build phase shard across
// cfg.Workers goroutines: every active session occupies its arrival-order
// index, each shard writes only its own sessions' indices and touches only
// per-session state (predictor, chaos injector, scratch tables), and the
// merged solve plus the outcome accounting stay serial — so worker count
// never changes a single bit of the report. Lowering (the objective table)
// is per-user work too, so the build writes it and the solve only aliases it.
func Simulate(w *Workload, cfg SimConfig) (*RunReport, error) {
	cfg = cfg.withDefaults()
	if len(w.Sessions) == 0 {
		return nil, fmt.Errorf("load: empty workload")
	}
	horizon := w.Cfg.HorizonSlots
	env := newSimEnv(w, &cfg)
	slotMs := env.SlotMs
	alloc := cfg.NewAllocator()
	lm := newLoadMetrics(cfg.Metrics)

	byArrive := make(map[int][]SessionSpec)
	for _, s := range w.Sessions {
		byArrive[s.ArriveSlot] = append(byArrive[s.ArriveSlot], s)
	}

	report := &RunReport{
		Mode:           "sim",
		Algorithm:      cfg.AllocName,
		HorizonSlots:   horizon,
		Spawned:        len(w.Sessions),
		PeakConcurrent: w.PeakConcurrent(),
	}
	var active []*simSession
	users := make([]core.UserInput, 0, 64)
	levels := cfg.Params.Levels
	var values []float64 // the slot's n x levels objective table, one slab

	finish := func(s *simSession) {
		cfg.SLO.Retire(s.spec.ID)
		cfg.Breaker.Retire(s.spec.ID)
		out := s.outcome()
		report.Outcomes = append(report.Outcomes, out)
		report.Completed++
		lm.observeOutcome(out)
	}

	serverInj := chaos.NewServerInjector(cfg.Chaos)
	report.SlotQuality = make([]float64, 0, horizon)

	var regretRef core.Allocator
	if cfg.Recorder.Enabled() && cfg.RegretRef {
		regretRef = core.DPOptimal{Resolution: cfg.RegretResolution}
	}

	var problem core.SlotProblem
	spans := step.VirtualSpans{Tracer: cfg.Tracer, Epoch: cfg.TraceEpoch, Algo: cfg.AllocName, SlotMs: slotMs}

	for slot := 0; slot < horizon; slot++ {
		// Arrivals: regenerating a session's motion and capacity traces
		// reads only its spec, so a burst sets up in parallel, each session
		// landing on its arrival-order index.
		if specs := byArrive[slot]; len(specs) > 0 {
			base := len(active)
			active = append(active, make([]*simSession, len(specs))...)
			parallelFor(len(specs), cfg.Workers, func(i int) {
				s := env.newSession(specs[i])
				active[base+i] = &s
			})
		}
		// Departures.
		next := active[:0]
		for _, s := range active {
			if slot >= s.spec.DepartSlot {
				finish(s)
				continue
			}
			next = append(next, s)
		}
		active = next
		if len(active) == 0 {
			report.SlotQuality = append(report.SlotQuality, 0)
			cfg.Health.Sample(int64(slot))
			continue
		}

		// Server-side faults: a stalled pipeline or slowed ACK path charges
		// extra delay to every session this slot.
		serverInj.Advance(slot)
		stallMs := float64(serverInj.StallFor()+serverInj.AckDelay()) / float64(time.Millisecond)

		// Build the slot problem over the active set, sharded by session
		// index. Every shard reads shared immutable state (size model,
		// coverage config) and writes only active[i]'s own fields, the i-th
		// problem row and the i-th row of the value slab, so the result is
		// identical at any worker count.
		n := len(active)
		users = slices.Grow(users[:0], n)[:n]
		values = slices.Grow(values[:0], n*levels)[:n*levels]
		parallelFor(n, cfg.Workers, func(i int) {
			users[i] = active[i].build(env, slot, 1, values[i*levels:(i+1)*levels])
		})
		problem = core.SlotProblem{T: slot + 1, Budget: cfg.BudgetMbps, Users: users, Values: values}
		var solveStart time.Time
		if cfg.Tracer.Enabled() {
			solveStart = time.Now()
		}
		allocation, slotTr := step.Solve(alloc, cfg.Params, &problem, cfg.Recorder.Enabled(), cfg.CounterfactualK)
		if cfg.Tracer.Enabled() {
			spans.Slot, spans.SolveNs, spans.Users = uint32(slot), time.Since(solveStart).Nanoseconds(), n
		}
		if cfg.Recorder.Enabled() {
			ids := make([]uint32, n)
			for i, s := range active {
				ids[i] = s.spec.ID
			}
			recordSimSlot(&cfg, slot, &problem, allocation, slotTr, ids, regretRef)
		}

		// Shared-egress overload: the allocator respects the budget when it
		// can, but when even the mandatory minimum levels exceed it (the
		// overload regime capacity search hunts for), delivering R Mbps of
		// slot content over a B-Mbps egress takes R/B slot-times; the excess
		// is charged to every session.
		overloadMs := 0.0
		if allocation.Rate > cfg.BudgetMbps && cfg.BudgetMbps > 0 {
			overloadMs = (allocation.Rate/cfg.BudgetMbps - 1) * slotMs
		}

		qualitySum := 0.0
		for i, s := range active {
			// Graceful degradation: while the session's SLO burns, the
			// breaker caps its quality — shedding load (bytes) before
			// shedding the user.
			q, capped := s.clamp(allocation.Levels[i])
			if capped {
				report.DegradedSlots++
			}
			rate, delay, missed := s.settle(env, q, overloadMs, stallMs)

			quality := float64(q)
			if missed {
				quality = 0
			}
			qualitySum += quality
			s.observe(&cfg, !missed, quality)

			if cfg.Tracer.Enabled() {
				spans.Emit(s.spec.ID, q, rate, delay, missed)
			}
		}
		report.SlotQuality = append(report.SlotQuality, qualitySum/float64(n))
		cfg.Health.Sample(int64(slot))
	}
	// Sessions alive at the horizon end complete there.
	for _, s := range active {
		finish(s)
	}
	sortOutcomes(report.Outcomes)
	return report, nil
}

// recordSimSlot builds and records the decision flight-recorder entry for
// one simulated slot: the chosen allocation with its per-user objective
// decomposition, the trace's rejections and counterfactual alternatives,
// and (when a regret reference is configured) the DP optimum's view of the
// same problem. Every slice is freshly allocated because the recorder ring
// and the attributor alias them.
func recordSimSlot(cfg *SimConfig, slot int, p *core.SlotProblem, a core.Allocation,
	tr *core.SlotTrace, ids []uint32, ref core.Allocator) {
	rec := step.Record(cfg.AllocName, cfg.Params, slot, p, a, tr)
	rec.SessionIDs = ids
	if ref != nil {
		opt := ref.Allocate(cfg.Params, p)
		rec.HasRegret = true
		rec.OptimalValue = opt.Value
		// Sub-1e-9 differences are summation-order noise between the DP and
		// greedy engines evaluating the same allocation; call them a tie.
		if r := opt.Value - a.Value; r > 1e-9 {
			rec.Regret = r
		}
		rec.UserRegret = make([]float64, len(p.Users))
		for i := range p.Users {
			rec.UserRegret[i] = core.Objective(cfg.Params, p.T, p.Users[i], opt.Levels[i]) - rec.UserValues[i]
		}
	}
	cfg.Recorder.Record(&rec)
}

package load

import (
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/netem"
	"repro/internal/tiles"
)

// simEnv is what a session's slot step reads besides its own state. It is
// fixed for the run and shared read-only, so build shards may use it
// concurrently.
type simEnv struct {
	cfg        *SimConfig
	w          *Workload
	sizeModel  *tiles.SizeModel
	qoe        metrics.QoEParams
	slotMs     float64
	deadlineMs float64
}

func newSimEnv(w *Workload, cfg *SimConfig) *simEnv {
	sps := w.Cfg.SlotsPerSecond
	if sps <= 0 {
		sps = 60
	}
	slotMs := 1000 / sps
	return &simEnv{
		cfg:        cfg,
		w:          w,
		sizeModel:  tiles.NewSizeModel(cfg.SizeModelSeed),
		qoe:        metrics.QoEParams{Alpha: cfg.Params.Alpha, Beta: cfg.Params.Beta},
		slotMs:     slotMs,
		deadlineMs: float64(cfg.DeadlineSlots) * slotMs,
	}
}

// simSession is one active session's streaming state, mirroring the server's
// per-session estimators (delta_n and qbar_n are maintained exactly as
// server.session does). Both virtual-time engines drive it through the same
// two steps per slot: build (the session's row of the slot problem) and
// settle (the outcome of the level the solve picked).
type simSession struct {
	spec  SessionSpec
	trace motion.Trace
	caps  []float64
	pred  *motion.Predictor
	acc   *metrics.UserQoE
	inj   *chaos.Injector // nil without a chaos profile

	t          int
	sumViewedQ float64
	covered    int
	missed     int
	served     int

	// Per-slot build results, reused across slots: settle consumes them
	// within the same slot, before the next build overwrites them.
	selBuf  []tiles.TileID
	rates   []float64 // rate ladder of the predicted view
	delays  []float64 // M/M/1 delay at each ladder rate
	linkCap float64   // link capacity after chaos and shard faults
	inView  bool      // delivered portion covers the actual view
	dropped bool      // chaos lost this slot's content on the wire
}

// newSession regenerates a session's inputs from its spec. It reads only the
// env, so arrivals may be set up concurrently.
func (e *simEnv) newSession(spec SessionSpec) simSession {
	tables := make([]float64, 2*tiles.Levels)
	return simSession{
		spec:   spec,
		trace:  e.w.MotionTrace(spec, 0),
		caps:   e.w.CapSlots(spec),
		pred:   motion.NewPredictor(e.cfg.PredictorWindow),
		acc:    metrics.NewUserQoE(e.qoe),
		inj:    chaos.NewInjector(e.cfg.Chaos, spec.ID),
		rates:  tables[:tiles.Levels:tiles.Levels],
		delays: tables[tiles.Levels:],
	}
}

func (s *simSession) delta() float64 { return (1 + float64(s.covered)) / float64(1+s.t) }

func (s *simSession) meanQ() float64 {
	if s.t == 0 {
		return 0
	}
	return s.sumViewedQ / float64(s.t)
}

// build runs the session's share of one slot's decision pipeline — pose
// prediction, tile selection, rate and delay tables, the chaos advance, the
// coverage check, the predictor update — and lowers the result: it returns
// the session's row of the slot problem and writes its objective row into
// values (one row of SlotProblem.Values). capFactor scales the link (a
// browned-out shard; 1 otherwise). It touches only s and the read-only env.
func (s *simSession) build(e *simEnv, slot int, capFactor float64, values []float64) core.UserInput {
	local := slot - s.spec.ArriveSlot
	actual := s.trace[local]
	predicted := s.pred.Predict()
	if local <= e.cfg.PredictorWindow {
		predicted = actual
	}
	cov := &e.cfg.Coverage
	s.selBuf = tiles.ForViewAppend(s.selBuf[:0], predicted, cov.FoV, cov.MarginDeg)
	e.sizeModel.RateTableInto(s.rates, tiles.CellFor(predicted.Pos), s.selBuf)
	// Chaos capacity faults: cliffs scale the link, a blackout zeroes it
	// (MM1Delay then saturates and the frame misses); a per-slot drop loses
	// the slot's content outright.
	s.inj.Advance(slot)
	s.linkCap = s.caps[local] * s.inj.SimCapFactor() * capFactor
	s.dropped = s.inj.Drop()
	netem.DelayTableMsInto(s.delays, s.rates, s.linkCap, e.slotMs)
	s.inView = cov.Covered(predicted, actual)
	s.pred.Observe(actual)

	u := core.UserInput{
		Rate:  s.rates,
		Delay: s.delays,
		Delta: s.delta(),
		MeanQ: s.meanQ(),
		Cap:   s.linkCap,
	}
	core.ObjectiveRow(values, e.cfg.Params, slot+1, u)
	return u
}

// settle charges the slot's outcome at quality level q to the session's
// estimators and QoE accumulator. overloadMs and stallMs are what every
// session of the slot pays on top of its own link (shared-egress overload,
// server stall). It returns the delivered rate, the charged delay and
// whether the frame missed its deadline.
func (s *simSession) settle(e *simEnv, q int, overloadMs, stallMs float64) (rate, delay float64, missed bool) {
	rate = s.rates[q-1]
	delay = netem.DelayMs(rate, s.linkCap, e.slotMs) + overloadMs + stallMs
	covered := s.inView
	missed = s.dropped || delay > e.deadlineMs
	if missed {
		// The frame is dropped, not displayed late: clamp the charged delay
		// at the pipeline bound (as the client does) and void its coverage.
		covered = false
		delay = e.deadlineMs
	}
	s.served++
	if missed {
		s.missed++
	}
	s.t++
	if covered {
		s.covered++
		s.sumViewedQ += float64(q)
	}
	s.acc.Observe(q, covered, delay)
	s.acc.ObserveFrame(!missed)
	return rate, delay, missed
}

// solveSlot solves one slot problem the way the run's telemetry allows:
// traced when the decision recorder is on (its records keep the levels and
// want the trace), otherwise without the defensive clone when the allocator
// offers that — the levels then alias solver scratch, valid until the next
// solve, and the caller's settle pass consumes them within the slot.
func solveSlot(cfg *SimConfig, alloc core.Allocator, p *core.SlotProblem) (core.Allocation, *core.SlotTrace) {
	if cfg.Recorder.Enabled() {
		if ta, ok := alloc.(core.TracingAllocator); ok {
			tr := &core.SlotTrace{TopK: cfg.CounterfactualK}
			return ta.AllocateTraced(cfg.Params, p, tr), tr
		}
	} else if sa, ok := alloc.(core.SharedAllocator); ok {
		return sa.AllocateShared(cfg.Params, p), nil
	}
	return alloc.Allocate(cfg.Params, p), nil
}

// outcome is the session's end-of-run report row.
func (s *simSession) outcome() SessionOutcome {
	out := SessionOutcome{
		ID:       s.spec.ID,
		Slots:    s.acc.Slots(),
		QoE:      s.acc.QoE(),
		Quality:  s.acc.AvgQuality(),
		DelayMs:  s.acc.AvgDelay(),
		Variance: s.acc.Variance(),
		Coverage: s.acc.CoverageRate(),
	}
	if s.served > 0 {
		out.MissFrac = float64(s.missed) / float64(s.served)
	}
	return out
}

package load

import (
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/step"
	"repro/internal/tiles"
)

// simEnv is what a session's slot step reads besides its own state. It is
// fixed for the run and shared read-only, so build shards may use it
// concurrently.
type simEnv struct {
	step.Env
	cfg        *SimConfig
	w          *Workload
	qoe        metrics.QoEParams
	deadlineMs float64
}

func newSimEnv(w *Workload, cfg *SimConfig) *simEnv {
	sps := w.Cfg.SlotsPerSecond
	if sps <= 0 {
		sps = 60
	}
	slotMs := 1000 / sps
	return &simEnv{
		Env:        step.Env{Model: tiles.NewSizeModel(cfg.SizeModelSeed), Coverage: cfg.Coverage, SlotMs: slotMs},
		cfg:        cfg,
		w:          w,
		qoe:        metrics.QoEParams{Alpha: cfg.Params.Alpha, Beta: cfg.Params.Beta},
		deadlineMs: float64(cfg.DeadlineSlots) * slotMs,
	}
}

// simSession is one active session of a virtual-time run: its slot-step
// state (the same step.Session the live server's sessions embed), the traces
// and predictor that drive it, and its QoE accumulator. Both virtual-time
// engines drive it through the same two calls per slot: build (the session's
// row of the slot problem) and settle (the outcome of the level the solve
// picked).
type simSession struct {
	step.Session
	spec  SessionSpec
	trace motion.Trace
	caps  []float64
	pred  *motion.Predictor
	acc   *metrics.UserQoE
	inj   *chaos.Injector // nil without a chaos profile

	missed int // frames that missed their deadline, of the T settled
	// breakerCap is the quality ceiling the breaker returned at the
	// session's last observation (0: uncapped), so the next slot's clamp
	// reads a field instead of locking the breaker.
	breakerCap int

	// What build learnt about the slot, consumed by settle before the next
	// build overwrites it.
	linkCap float64 // link capacity after chaos and shard faults
	inView  bool    // delivered portion covers the actual view
	dropped bool    // chaos lost this slot's content on the wire
}

// newSession regenerates a session's inputs from its spec. It reads only the
// env, so arrivals may be set up concurrently.
func (e *simEnv) newSession(spec SessionSpec) simSession {
	tables := make([]float64, 2*tiles.Levels)
	s := simSession{
		spec:  spec,
		trace: e.w.MotionTrace(spec, 0),
		caps:  e.w.CapSlots(spec),
		pred:  motion.NewPredictor(e.cfg.PredictorWindow),
		acc:   metrics.NewUserQoE(e.qoe),
		inj:   chaos.NewInjector(e.cfg.Chaos, spec.ID),
	}
	s.Rates, s.Delays = tables[:tiles.Levels:tiles.Levels], tables[tiles.Levels:]
	return s
}

// build runs the session's share of one slot's decision pipeline — the
// step's trace-driven prologue (predict, select, rate ladder, coverage,
// predictor update), the chaos advance, and the step's input at the link's
// true capacity under the M/M/1 model: the virtual allocator is shown the
// truth — and lowers the result: it returns the session's row of the slot
// problem and writes its objective row into values (one row of
// SlotProblem.Values). capFactor scales the link (a browned-out shard; 1
// otherwise). It touches only s and the read-only env.
func (s *simSession) build(e *simEnv, slot int, capFactor float64, values []float64) core.UserInput {
	local := slot - s.spec.ArriveSlot
	s.inView = s.Follow(&e.Env, s.pred, local <= e.cfg.PredictorWindow, s.trace[local])
	// Chaos capacity faults: cliffs scale the link, a blackout zeroes it
	// (MM1Delay then saturates and the frame misses); a per-slot drop loses
	// the slot's content outright.
	s.inj.Advance(slot)
	s.linkCap = s.caps[local] * s.inj.SimCapFactor() * capFactor
	s.dropped = s.inj.Drop()
	u := s.Input(&e.Env, s.linkCap, nil)
	core.ObjectiveRow(values, e.cfg.Params, slot+1, u)
	return u
}

// settle charges the slot's outcome at quality level q to the session.
// overloadMs and stallMs are what every session of the slot pays on top of
// its own link (shared-egress overload, server stall). It returns the
// delivered rate, the charged delay and whether the frame missed its
// deadline.
func (s *simSession) settle(e *simEnv, q int, overloadMs, stallMs float64) (rate, delay float64, missed bool) {
	rate, delay, missed = s.Settle(&e.Env, s.acc, q, s.linkCap, s.inView, s.dropped, overloadMs, stallMs, e.deadlineMs)
	if missed {
		s.missed++
	}
	return rate, delay, missed
}

// clamp applies the breaker's ceiling to the level the solve picked:
// graceful degradation sheds the session's bytes before the session. It
// reports whether the ceiling bit.
func (s *simSession) clamp(q int) (int, bool) {
	if s.breakerCap > 0 && q > s.breakerCap {
		return s.breakerCap, true
	}
	return q, false
}

// observe feeds the slot's display outcome to the SLO monitor and the
// monitor's verdict to the breaker, keeps the breaker's new ceiling for the
// next slot's clamp and returns the verdict. Both keep per-session state
// behind their own locks, so sessions may observe from any goroutine.
func (s *simSession) observe(cfg *SimConfig, displayed bool, quality float64) string {
	state := cfg.SLO.ObserveSlot(s.spec.ID, displayed, quality)
	s.breakerCap = cfg.Breaker.Observe(s.spec.ID, state)
	return state
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
	if s.T > 0 {
		out.MissFrac = float64(s.missed) / float64(s.T)
	}
	return out
}

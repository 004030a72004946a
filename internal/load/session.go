package load

import (
	"math/rand"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/nettrace"
	"repro/internal/obs"
	"repro/internal/randsrc"
	"repro/internal/step"
	"repro/internal/tiles"
)

// deadlineSlots is the display-pipeline tolerance: a frame whose delivery
// delay exceeds this many slot-times misses its deadline (decode at t+1,
// display at t+2).
const deadlineSlots = 2

// simEnv is what a session's slot step reads besides its own state. It is
// fixed for the run and shared read-only, so build shards may use it
// concurrently. The content-size landscape is seed 0's, whatever the
// workload seed (ROADMAP 2(e)).
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
		Env:        step.Env{Model: tiles.NewSizeModel(0), Coverage: motion.DefaultCoverage(), SlotMs: slotMs},
		cfg:        cfg,
		w:          w,
		qoe:        metrics.QoEParams{Alpha: cfg.Params.Alpha, Beta: cfg.Params.Beta},
		deadlineMs: deadlineSlots * slotMs,
	}
}

// simSession is one active session of a virtual-time run: its slot-step
// state (the same step.Session the live server's sessions embed), the
// streamed inputs and predictor that drive it, its QoE accumulator and its
// fleet coordinates. The inputs are a motion walker and a capacity cursor,
// each advanced exactly once per slot the session lives, by the slot's
// prologue, so the session holds its walk state and its network trace's few
// segments, not a pose and a capacity for every slot. A served slot takes
// three calls: prologue (the half of the build no decision reaches, which
// may run while the previous slot is still being built, solved or
// settled), build (the half that reads the session's state: chaos, the
// delay table, the session's row of the slot problem) and settle (the
// outcome of the level the solve picked). Build, and a blackout, run the
// slot's prologue themselves when nothing ran it before.
//
// A session is a value in a sessionArena and never moves, and neither do
// its inputs: the predictor's windows, the rate and delay tables and the
// inputs' storage point into themselves. When a session departs, the arena
// hands the value to a later arrival, and setUp makes it that session in
// place.
type simSession struct {
	// What the prologue learnt about a slot, slot t's at banks[t&1]; build
	// points Rates at the slot's bank, where the solve, settle and tally
	// read them. A bank is one cache line and the banks come first, so that
	// in a value that starts on a line (an arena chunk's do) prologue(t+1)
	// writes a line no one reads during slot t; in and spec fill the next
	// line, so that a prologue touches two lines of the value, not three.
	banks [2]slotBank
	in    *sessionInputs // the value's own, from the arena
	spec  SessionSpec
	step.Session
	acc metrics.UserQoE
	inj *chaos.Injector // nil without a chaos profile

	missed int // frames that missed their deadline, of the T settled
	// breakerCap is the quality ceiling the breaker returned at the
	// session's last observation (0: uncapped), so the next slot's clamp
	// reads a field instead of locking the breaker.
	breakerCap int
	// slo and brk are the session's SLO window and breaker entry, taken at
	// its first observation (nil before, and always with the monitor or
	// the breaker off). A handle is valid from then until Retire of the
	// session's ID: finish retires both before the value goes back to the
	// arena, and setUp zeroes them with the rest of the session.
	slo *obs.SLOEntry
	brk *obs.BreakerEntry

	// What build learnt about the slot, consumed by settle before the next
	// build overwrites it.
	linkCap float64 // link capacity after chaos and shard faults
	inView  bool    // delivered portion covers the actual view
	dropped bool    // chaos lost this slot's content on the wire

	delays [tiles.Levels]float64 // Delays, which build fills
	fleetPlace
}

// slotBank is what a session's prologue learnt about one slot. A session
// keeps two, so that prologue(t+1) fills one while slot t is built, solved,
// settled and tallied from the other: no word is written by the one and
// touched by the other. The delay table needs no second copy: only build
// writes it, and slot t+1's build starts after slot t's tally.
type slotBank struct {
	rates  [tiles.Levels]float64 // the plan's f^R ladder
	rawCap float64               // the trace's link capacity, before chaos and shard faults
	slot   int32                 // the slot the prologue filled the bank for; -1 once set up
	inView bool                  // the plan covers the pose the user takes
}

// sessionInputs is what only a session's prologue reads: the motion
// walker, the capacity cursor and the predictor, and the storage they point
// into — the random source both draw from, the trace's segments and the
// tile selection's array. It is kept apart from the rest of the session, in
// a chunk of its own, because the serial solve and settle read every
// session's ladder and counters every slot: with these 5.7 KB inline they
// would sit a source apart.
type sessionInputs struct {
	walk motion.Walker
	caps nettrace.SlotCursor
	pred motion.Predictor
	net  nettrace.Trace // the trace caps walks
	src  randsrc.Source // draws the trace, then the walk
	rng  rand.Rand      // over src
	sel  [tiles.NumTiles]tiles.TileID
	segs [sessionSegments]nettrace.Segment // net.Segments' array until it outgrows it
}

// sessionSegments is how many capacity-trace segments a session holds
// inline: a 4-s session on an LTE trace (1-5 s holds, to its last slot
// plus a second) needs two or three. A session value whose trace outgrew
// them keeps the larger array for its later lives.
const sessionSegments = 4

// setUp makes s, a value from a sessionArena, the session spec describes,
// in place. s is fresh or a departed session's; either way the session's
// state but its placement starts from zero and every input is drawn anew, so
// it is bit for bit what a fresh value would be. It reads only the env and
// writes only s and its inputs, so arrivals may be set up concurrently.
func (e *simEnv) setUp(s *simSession, spec SessionSpec) {
	in := s.in
	*s = simSession{in: in, fleetPlace: s.fleetPlace}
	s.spec, s.inj = spec, chaos.NewInjector(e.cfg.Chaos, spec.ID)
	s.Delays = s.delays[:]
	s.banks[0].slot, s.banks[1].slot = -1, -1
	s.acc.Reset(e.qoe)
	in.pred.Reset(motion.DefaultWindow)
	if cap(in.net.Segments) < len(in.segs) {
		in.net.Segments = in.segs[:0]
	}
	// One source draws the network trace and is then reseeded for the walk,
	// which keeps it.
	in.rng = *rand.New(&in.src)
	e.w.netTraceInto(&in.net, spec, &in.rng)
	in.caps = in.net.Cursor(e.w.Cfg.SlotsPerSecond)
	in.walk = e.w.walker(spec, &in.rng)
}

// arenaChunk is how many sessions one arena chunk holds (32 KB of
// simSessions and 370 KB of their inputs): a run that peaks at a few
// thousand concurrent sessions makes tens of allocations for them and
// leaves at most a chunk's tail unused.
const arenaChunk = 64

// sessionArena hands out the session values of one run: a departed
// session's first, last departed first, else the next value of the current
// chunk, so fresh sessions and their inputs lie in memory in arrival order.
// A chunk is allocated once and never moves, so neither does a session or
// its inputs. Only the serial part of a slot calls it.
type sessionArena struct {
	chunk  []simSession    // the current chunk's values not yet handed out
	inputs []sessionInputs // their inputs, index for index
	free   []*simSession   // departed sessions
}

// get returns a session value for an arrival to set up.
func (a *sessionArena) get() *simSession {
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free = a.free[:n-1]
		return s
	}
	if len(a.chunk) == 0 {
		a.chunk, a.inputs = make([]simSession, arenaChunk), make([]sessionInputs, arenaChunk)
	}
	s := &a.chunk[0]
	s.in = &a.inputs[0]
	a.chunk, a.inputs = a.chunk[1:], a.inputs[1:]
	return s
}

// put takes back a departed session for a later arrival.
func (a *sessionArena) put(s *simSession) { a.free = append(a.free, s) }

// prologue runs the half of slot's build that no decision reaches — the
// walk's next pose, the step's trace-driven plan (predict, select, rate
// ladder, coverage, predictor update) and the trace's next capacity — into
// the slot's bank. It writes only s.in and that bank and reads only the
// env and the session's arrival slot, so it may run while the session's
// previous slot is built, solved and settled from the other bank.
func (s *simSession) prologue(e *simEnv, slot int) {
	in, b := s.in, &s.banks[slot&1]
	plan := step.Plan{Sel: in.sel[:0], Rates: b.rates[:]}
	b.inView = plan.Follow(&e.Env, &in.pred, slot-s.spec.ArriveSlot <= motion.DefaultWindow, in.walk.Next())
	b.rawCap = in.caps.Next()
	b.slot = int32(slot)
}

// prepped reports whether the session's prologue for slot has run.
func (s *simSession) prepped(slot int) bool { return s.banks[slot&1].slot == int32(slot) }

// livesAt reports whether the session still runs at slot of a horizon-slot
// run: whether a prologue for slot has a build or a blackout to feed.
func (s *simSession) livesAt(slot, horizon int) bool {
	return slot < horizon && slot < s.spec.DepartSlot
}

// build runs the session's share of one slot's decision pipeline — the
// slot's prologue unless it already ran, the chaos advance, and the step's
// input at the link's true capacity under the M/M/1 model: the virtual
// allocator is shown the truth — and lowers the result: it returns the
// session's row of the slot problem and writes its objective row into
// values (one row of SlotProblem.Values). capFactor scales the link (a
// browned-out shard; 1 otherwise). It touches only s and the read-only env,
// and s.in only if the prologue has not run.
func (s *simSession) build(e *simEnv, slot int, capFactor float64, values []float64) core.UserInput {
	if !s.prepped(slot) {
		s.prologue(e, slot)
	}
	b := &s.banks[slot&1]
	s.Rates, s.inView = b.rates[:], b.inView
	// Chaos capacity faults: cliffs scale the link, a blackout zeroes it
	// (the M/M/1 delay then saturates and the frame misses); a per-slot drop loses
	// the slot's content outright. The injector advances here, not in the
	// prologue: a blacked-out slot does not step it.
	s.inj.Advance(slot)
	s.linkCap = b.rawCap * s.inj.SimCapFactor() * capFactor
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
	rate, delay, missed = s.Settle(&e.Env, &s.acc, q, s.linkCap, s.inView, s.dropped, overloadMs, stallMs, e.deadlineMs)
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
// monitor's verdict to the breaker, and keeps the breaker's new ceiling for
// the next slot's clamp and the verdict for the router view. It goes
// through the session's handles, which lock only the session's own
// entries, so sessions may observe from any goroutine.
func (s *simSession) observe(cfg *SimConfig, displayed bool, quality float64) {
	if s.slo == nil {
		s.slo = cfg.SLO.Entry(s.spec.ID)
	}
	if s.brk == nil {
		s.brk = cfg.Breaker.Entry(s.spec.ID)
	}
	state := cfg.SLO.Observe(s.slo, displayed, quality)
	s.breakerCap = cfg.Breaker.ObserveEntry(s.brk, state)
	s.paging = state == obs.SLOStatePage
}

// outcome is the session's end-of-run report row.
func (s *simSession) outcome() sessionOutcome {
	out := sessionOutcome{
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

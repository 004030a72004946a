// Package step is the paper's per-slot pipeline for one session (Sections
// II-III), written once: predict the pose, select the tiles that cover it,
// build the rate ladder f^R and the expected delays E[d_n], hand Algorithm 1
// delta_n and qbar_n, and fold the slot's outcome back into them. The
// trace-replay simulator (internal/sim), the virtual-time load engines
// (internal/load) and the live server's slot loop (internal/server) are three
// drivers of this one step. They differ in exactly two inputs, both passed
// in: the capacity the allocator is shown (the trace, a noisy EMA of it, or
// the server's goodput filter) and the delay model (M/M/1, or the server's
// regression over measured ACK delays).
//
// Nothing in the step locks, allocates in steady state, reads a clock or
// keeps cross-session state: a Session is touched by one goroutine at a time
// (the server's decider lock serialises its calls) and an Env is read-only.
// ForkJoin is the one loop every driver splits its sessions' steps across.
package step

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/tiles"
	"repro/internal/trace"
	"repro/internal/vrmath"
)

// Env is what a slot step reads besides the session's own state. It is fixed
// for a run and shared read-only, so sessions may step concurrently.
type Env struct {
	Model    *tiles.SizeModel
	Coverage motion.CoverageConfig
	SlotMs   float64
}

// Plan is the state-independent half of a session's slot: the tile selection
// for the predicted pose and its rate ladder. It depends on nothing an
// allocation decided, so one Plan serves every algorithm replayed over the
// same inputs, and may be built before the previous slot has settled. The
// slices are scratch, valid until the next Select; a caller may point Rates
// at storage of its own (tiles.Levels long) to keep a slot's ladder.
type Plan struct {
	Cell  tiles.CellID
	Sel   []tiles.TileID
	Rates []float64 // f^R ladder of the selection, Mbps
}

// Select fills the plan for the predicted pose.
func (p *Plan) Select(env *Env, predicted vrmath.Pose) {
	p.Cell = tiles.CellFor(predicted.Pos)
	p.Sel = tiles.ForViewAppend(p.Sel[:0], predicted, env.Coverage.FoV, env.Coverage.MarginDeg)
	if len(p.Rates) != tiles.Levels {
		p.Rates = make([]float64, tiles.Levels)
	}
	env.Model.RateTableInto(p.Rates, p.Cell, p.Sel)
}

// Follow is the prologue of a trace-driven slot: predict (during cold start,
// while the regression window has no data, the prediction is taken as
// perfect — the real system warms up the same way), Select, check whether
// the selection covers the pose the user actually takes, and show the
// predictor that pose. It returns the coverage indicator 1_n(t).
func (p *Plan) Follow(env *Env, pred *motion.Predictor, cold bool, actual vrmath.Pose) bool {
	predicted := pred.Predict()
	if cold {
		predicted = actual
	}
	p.Select(env, predicted)
	covered := env.Coverage.Covered(predicted, actual)
	pred.Observe(actual)
	return covered
}

// DelayModel predicts the delivery delay, in ms, of each ladder rate on a
// link estimated at capMbps, into out (len(out) == len(rates)). It is one of
// the two injected differences between the drivers.
type DelayModel interface {
	DelayTableInto(out, rates []float64, capMbps, slotMs float64)
}

// Session is one session's slot-step state: the h_n estimators, the slot's
// rate ladder and the delay-table scratch. The zero value is ready to use
// once Rates points at a plan's ladder. The plan itself — the cell and the
// tile selection — is the driver's: only a driver that sends the tiles
// keeps it past the prologue.
type Session struct {
	core.ViewState
	// Rates is the slot's f^R ladder, Mbps: the Rates of the Plan the driver
	// built for the slot, which Input and Settle read.
	Rates []float64
	// Delays is the expected delay at each ladder rate, scratch (a caller
	// may pre-size it beside its ladders in one slab).
	Delays []float64
}

// Input is the state-dependent half of the build: the delay table of the
// plan's ladder at capMbps — the capacity the allocator is shown, the other
// injected difference — and the session's row of the slot problem. A nil
// model is the M/M/1 queue of eq. (13).
func (s *Session) Input(env *Env, capMbps float64, model DelayModel) core.UserInput {
	if len(s.Delays) != len(s.Rates) {
		s.Delays = make([]float64, len(s.Rates))
	}
	if model == nil {
		netem.DelayTableMsInto(s.Delays, s.Rates, capMbps, env.SlotMs)
	} else {
		model.DelayTableInto(s.Delays, s.Rates, capMbps, env.SlotMs)
	}
	return core.UserInput{
		Rate:  s.Rates,
		Delay: s.Delays,
		Delta: s.Delta(),
		MeanQ: s.MeanQ(),
		Cap:   capMbps,
	}
}

// Settle is the virtual outcome of delivering the plan at level q: the M/M/1
// delay at the link's true capacity plus what every session of the slot pays
// on top (shared-egress overload, server stall). A frame that chaos dropped
// on the wire, or whose delay exceeds deadlineMs, misses: it is not
// displayed late, so the charged delay clamps at the deadline (as the client
// does) and its coverage is void. +Inf is the paper's perfect-knowledge
// model, in which nothing misses. The outcome lands in the session's
// estimators and in acc; Settle returns the delivered rate, the charged
// delay and whether the frame missed.
func (s *Session) Settle(env *Env, acc *metrics.UserQoE, q int, linkMbps float64, inView, dropped bool,
	overloadMs, stallMs, deadlineMs float64) (rate, delay float64, missed bool) {
	rate = s.Rates[q-1]
	delay = netem.DelayMs(rate, linkMbps, env.SlotMs) + overloadMs + stallMs
	missed = dropped || delay > deadlineMs
	if missed {
		inView = false
		delay = deadlineMs
	}
	s.charge(acc, q, inView, delay, missed)
	return rate, delay, missed
}

// ForcedMiss settles a slot in which nothing was delivered (the session is
// mid-handoff or stranded): a miss at the lowest level, charged the deadline.
func (s *Session) ForcedMiss(acc *metrics.UserQoE, deadlineMs float64) {
	s.charge(acc, 1, false, deadlineMs, true)
}

func (s *Session) charge(acc *metrics.UserQoE, q int, covered bool, delay float64, missed bool) {
	s.Observe(q, covered)
	acc.Observe(q, covered, delay)
	acc.ObserveFrame(!missed)
}

// Solve solves one slot problem the way the run's telemetry allows: traced
// when the decision is being recorded (the record keeps the levels and wants
// the trace; topK opts into counterfactual capture), otherwise without the
// defensive clone when the allocator offers that — the levels then alias
// solver scratch, valid until the allocator's next solve, and the caller
// consumes them within the slot.
func Solve(alloc core.Allocator, params core.Params, p *core.SlotProblem, recording bool, topK int) (core.Allocation, *core.SlotTrace) {
	if recording {
		if ta, ok := alloc.(core.TracingAllocator); ok {
			tr := &core.SlotTrace{TopK: topK}
			return ta.AllocateTraced(params, p, tr), tr
		}
	} else if sa, ok := alloc.(core.SharedAllocator); ok {
		return sa.AllocateShared(params, p), nil
	}
	return alloc.Allocate(params, p), nil
}

// Record builds the flight-recorder entry of one decided slot: the chosen
// allocation, its per-user objective decomposition (eq. (9)) and what the
// trace says about the greedy pass. Every slice is fresh or the caller's own
// (a.Levels must not alias solver scratch: the recorder retains it). Callers
// add what only they know — run, session IDs, capacity error, regret.
func Record(algo string, params core.Params, slot int, p *core.SlotProblem, a core.Allocation, tr *core.SlotTrace) obs.SlotRecord {
	rec := obs.SlotRecord{
		Algorithm:  algo,
		Slot:       slot,
		Levels:     a.Levels,
		Value:      a.Value,
		RateMbps:   a.Rate,
		BudgetMbps: p.Budget,
		UserValues: make([]float64, len(p.Users)),
	}
	if p.Budget > 0 {
		rec.Utilization = a.Rate / p.Budget
	}
	if tr != nil {
		rec.Branch = tr.Branch
		rec.Upgrades = tr.Upgrades
		rec.Rejections = tr.Rejections
		rec.Alternatives = tr.Alternatives
	}
	for i := range p.Users {
		terms := core.ObjectiveTerms(params, p.T, p.Users[i], a.Levels[i])
		rec.UserValues[i] = terms.Quality - terms.Delay - terms.Variance
		rec.QualityTerm += terms.Quality
		rec.DelayTerm += terms.Delay
		rec.VarianceTerm += terms.Variance
	}
	return rec
}

// VirtualSpans stamps one virtual slot's spans — the schema the live engine
// emits, on the slot clock: slot boundaries become timestamps. SolveNs, the
// measured wall time of the solve, is the one real cost inside a virtual
// slot; the transport spans are purely virtual.
type VirtualSpans struct {
	Tracer  *trace.Tracer
	Epoch   uint64 // salts trace-ID derivation
	Algo    string
	Slot    uint32
	SlotMs  float64
	SolveNs int64
	Users   int // sessions in the slot's problem
}

// Emit writes one session's decide, send, receive and display spans for a
// slot settled at the given level, rate and charged delay.
func (v *VirtualSpans) Emit(user uint32, level int, rateMbps, delayMs float64, missed bool) {
	tr := v.Tracer
	tid := trace.TileTraceID(v.Epoch, user, v.Slot)
	slotNs := int64(float64(v.Slot) * v.SlotMs * 1e6)
	delayNs := int64(delayMs * 1e6)
	// rate Mbps over a slotMs slot = rate*slotMs*125 bytes.
	bytes := int(rateMbps * v.SlotMs * 125)

	d := tr.StartAt(tid, trace.StageDecide, trace.SideServer, user, v.Slot, slotNs)
	d.SetAlgo(v.Algo)
	d.SetLevel(level)
	d.SetTiles(v.Users)
	d.EndAt(slotNs + v.SolveNs)

	tx := tr.StartAt(tid, trace.StageSend, trace.SideServer, user, v.Slot, slotNs)
	tx.SetLevel(level)
	tx.SetBytes(bytes)
	tx.EndAt(slotNs + delayNs)

	rx := tr.StartAt(tid, trace.StageRecv, trace.SideClient, user, v.Slot, slotNs)
	rx.SetBytes(bytes)
	rx.EndAt(slotNs + delayNs)

	disp := tr.StartAt(tid, trace.StageDisplay, trace.SideClient, user, v.Slot, slotNs+delayNs)
	disp.SetLevel(level)
	if missed {
		disp.SetOutcome(trace.OutcomeMissed)
	} else {
		disp.SetOutcome(trace.OutcomeDisplayed)
	}
	disp.EndAt(slotNs + delayNs)
}

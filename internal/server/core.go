package server

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/motion"
	"repro/internal/netem"
	"repro/internal/randsrc"
	"repro/internal/step"
	"repro/internal/tiles"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vrmath"
)

// decider is the server's decision core: the state the paper's slot
// decision reads (poses, ACK and NACK feedback, the budget, handoffs) and
// the decisions, behind one lock. Its methods take the slot and the time as
// arguments: it reads no clock (spans use the tracer's), touches no socket
// and starts no goroutine. The performers in server.go own those and call
// in. The Server embeds it, so its exported methods are the Server's.
type decider struct {
	cfg     Config
	env     step.Env // what every session's slot step reads; fixed at New
	metrics serverMetrics
	pool    *step.ForkJoin // the build phase, under mu; then the dispatch

	mu sync.Mutex
	// sessions are in user order, the order the slot decides them in:
	// Algorithm 1 breaks score ties toward the lowest index, so a tie goes
	// to the lowest user ID, not to whoever was admitted first.
	sessions []*session
	slot     uint32                   // the next slot: NACK retransmissions and exports carry it
	budget   float64                  // B(t): Config.BudgetMbps until SetBudget moves it
	adopted  map[uint32]*HandoffState // handed-off state until its user's Hello
	// coordEpoch is the highest coordinator term this shard has witnessed;
	// AdoptSession fences out state stamped by an older (deposed) leader. 0,
	// the single-replica coordinator's forever-term, disables fencing.
	coordEpoch       uint64
	closed, draining bool
	joined           chan struct{} // closed and replaced by every admission

	// Slot scratch. buildFn is bound once so pool.Run gets the same closure
	// every slot instead of allocating one.
	buildFn func(int)
	planBuf []planned
	userBuf []core.UserInput
	probBuf core.SlotProblem
}

// planned is one session's slot decision for the dispatch phase: the level
// after the breaker's clamp and the admitted tiles (session scratch).
type planned struct {
	sess  *session
	level int
	ids   []tiles.VideoID
	trace uint64
}

// session is one admitted user. The performers own its transport half; the
// decider owns the rest, under its lock (the slot's build steps each
// session on one pool worker while the slot holds it).
type session struct {
	user       uint32
	ctrl       *transport.Conn
	sender     *transport.Sender
	sendCh     chan []tileJob
	sendClosed bool // under the decider's lock, like the decision half
	sendDone   chan struct{}

	havePose  bool
	predictor *motion.Predictor
	ledger    *tiles.DeliveryLedger
	ema       *estimate.EMA

	// The h_n estimators (one definition with core.Tracker and the virtual
	// sessions; a handoff copies them) and the plan and delay scratch.
	step.Session

	// handoff marks a session exported to another shard: it retires as a
	// handoff, keeping the fleet-shared SLO window and breaker state alive.
	handoff bool
	retired bool

	// capSamples is a ring of goodput samples whose maximum is the capacity
	// estimate (a BBR-style max filter: a shaped train's goodput reaches the
	// link rate only when it saturates it). Once full, capIdx is the oldest.
	capSamples []float64
	capIdx     int

	// allocated joins ACKs back to the level and rate their slot chose.
	allocated map[uint32]allocRecord

	// retries counts NACK-driven resends per tile (each carries its attempt
	// number); retryFirst is the first NACK's time, against which the retry
	// policy's budget runs. ACKed tiles are forgotten. rng jitters the
	// backoff, seeded per user.
	retries    map[tiles.VideoID]uint8
	retryFirst map[tiles.VideoID]time.Time
	rng        *rand.Rand

	// The polynomial delay regression's samples, oldest first.
	delayRates []float64
	delayMs    []float64

	modelBuf []float64
	idsBuf   []tiles.VideoID
	fitter   estimate.PolyFitter

	tilesSent    int
	tilesSkipped int
	retransmits  int
	levelSum     int
	slotsServed  int
}

type allocRecord struct {
	level int
	rate  float64
}

const (
	maxDelaySamples = 240 // the delay regression's window
	capWindow       = 120 // the max-filter's window: about 2 s of ACKs at 60 FPS
	// maxAllocRecords bounds allocated, which an ACK-less session (a dead
	// display path) would grow by a slot a time: a slot that finds it full
	// drops the records more than maxAllocRecords/2 slots old.
	maxAllocRecords = 256
)

// newDecider applies Config's defaults and builds the decision core.
func newDecider(cfg Config) *decider {
	if cfg.SlotDuration <= 0 {
		cfg.SlotDuration = time.Second / 60
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &decider{
		cfg:     cfg,
		env:     step.Env{Model: tiles.NewSizeModel(cfg.SizeModelSeed), Coverage: motion.DefaultCoverage(), SlotMs: cfg.SlotDuration.Seconds() * 1000},
		metrics: newServerMetrics(cfg.Metrics),
		pool:    step.NewForkJoin(cfg.SlotWorkers),
		adopted: make(map[uint32]*HandoffState),
		budget:  cfg.BudgetMbps,
		joined:  make(chan struct{}),
	}
	c.buildFn = c.build
	return c
}

// find binary-searches sessions for the user (the caller holds mu).
func (c *decider) find(user uint32) (int, bool) {
	return slices.BinarySearchFunc(c.sessions, user, func(s *session, u uint32) int { return cmp.Compare(s.user, u) })
}

// lookup returns the user's admitted session (the caller holds mu).
func (c *decider) lookup(op string, user uint32) (*session, error) {
	if i, ok := c.find(user); ok {
		return c.sessions[i], nil
	}
	return nil, fmt.Errorf("server: %s: no session for user %d", op, user)
}

// admit registers a Hello's session and makes its decision half. A Hello
// for a live user supersedes its session (prev, for the performer to close)
// and so never counts against MaxSessions; state adopted for the user is
// resumed. ok is false if the server is closed or full.
func (c *decider) admit(sess *session) (prev *session, resumed, ok bool) {
	sess.predictor = motion.NewPredictor(motion.DefaultWindow)
	sess.ledger = tiles.NewDeliveryLedger()
	sess.ema = estimate.NewEMA(emaAlpha)
	sess.allocated = make(map[uint32]allocRecord)
	sess.retries = make(map[tiles.VideoID]uint8)
	sess.retryFirst = make(map[tiles.VideoID]time.Time)
	sess.rng = randsrc.NewRand(int64(sess.user)*2654435761 + 1)
	sess.Sel = make([]tiles.TileID, 0, tiles.NumTiles)

	c.mu.Lock()
	defer c.mu.Unlock()
	i, found := c.find(sess.user)
	if c.closed {
		return nil, false, false
	}
	if found {
		prev, c.sessions[i] = c.sessions[i], sess
	} else if c.cfg.MaxSessions > 0 && len(c.sessions) >= c.cfg.MaxSessions {
		c.metrics.sessionsRejected.Inc()
		c.cfg.Logf("server: rejecting user %d, session limit %d reached", sess.user, c.cfg.MaxSessions)
		return nil, false, false
	} else {
		c.sessions = slices.Insert(c.sessions, i, sess)
	}
	close(c.joined)
	c.joined = make(chan struct{})
	c.metrics.sessionsJoined.Inc()
	c.metrics.sessionsActive.Add(1)
	st := c.adopted[sess.user]
	if st == nil {
		return prev, false, true
	}
	delete(c.adopted, sess.user)
	sess.ViewState = st.ViewState
	if st.EMAPrimed && st.EstMbps > 0 {
		sess.ema.Update(st.EstMbps) // a first Update adopts its sample
	}
	// Both windows arrive oldest first; a longer one keeps its newest.
	sess.capSamples = append(sess.capSamples, st.CapSamples[max(0, len(st.CapSamples)-capWindow):]...)
	nd := min(len(st.DelayRates), len(st.DelayMs))
	lo := max(0, nd-maxDelaySamples)
	sess.delayRates = append(sess.delayRates, st.DelayRates[lo:nd]...)
	sess.delayMs = append(sess.delayMs, st.DelayMs[lo:nd]...)
	c.metrics.handoffsIn.Inc()
	c.cfg.Logf("server: user %d resumed from shard %d (token %016x)", sess.user, st.FromShard, st.Token)
	return prev, true, true
}

// retire removes a departed session, which keeps state bounded under
// churn, and feeds its mean viewed quality to the QoE histogram. A repeat
// (a panic path and the control loop's exit) is a no-op.
func (c *decider) retire(sess *session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sess.retired {
		return
	}
	sess.retired = true
	c.metrics.sessionsActive.Add(-1)
	if sess.handoff {
		c.metrics.handoffsOut.Inc()
	} else {
		c.metrics.sessionsLeft.Inc()
		if sess.slotsServed > 0 {
			c.metrics.sessionMeanQ.Observe(sess.MeanQ())
		}
	}
	i, ok := c.find(sess.user)
	if !ok || c.sessions[i] != sess {
		return // superseded: the reconnect keeps the user's SLO window and breaker
	}
	c.sessions = slices.Delete(c.sessions, i, i+1)
	if !sess.handoff { // the adopting shard continues a handoff's windows
		c.cfg.SLO.Retire(sess.user)
		c.cfg.Breaker.Retire(sess.user)
	}
}

// shut marks the decider closed (or draining) and returns the sessions to
// release; false if it already was.
func (c *decider) shut(drain bool) ([]*session, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || drain && c.draining {
		return nil, false
	}
	if drain {
		c.draining = true
	} else {
		c.closed = true
	}
	return slices.Clone(c.sessions), true
}

// pose ingests a pose update.
func (c *decider) pose(sess *session, p vrmath.Pose) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sess.havePose = true
	sess.predictor.Observe(p)
}

// ack folds client feedback into the estimators and the QoE state.
func (c *decider) ack(sess *session, ack transport.TileACK) {
	sp := c.cfg.Tracer.Start(trace.TileTraceID(c.cfg.TraceEpoch, sess.user, ack.Slot), trace.StageAck, trace.SideServer, sess.user, ack.Slot)
	sp.SetTiles(len(ack.Tiles))
	sp.SetBytes(ack.Bytes)
	sp.SetOutcome(trace.OutcomeMissed)
	if ack.Displayed {
		sp.SetOutcome(trace.OutcomeDisplayed)
	}
	defer sp.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.metrics.acks.Inc()
	for _, id := range ack.Tiles {
		sess.ledger.MarkDelivered(id)
		delete(sess.retries, id)
		delete(sess.retryFirst, id)
	}
	// Goodput across the slot's arrival window approximates the bottleneck
	// rate; the EMA smooths it, the max-filter tracks the capacity. The
	// error histogram compares the estimate the allocator used with it.
	if ack.DelayMs > 0.2 && ack.Bytes > 0 {
		mbps := float64(ack.Bytes) * 8 / (ack.DelayMs / 1000) / 1e6
		if prior := sess.capEstimate(); prior > 0 {
			c.metrics.capEstRelErr.Observe(math.Abs((prior - mbps) / mbps))
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
	if !ok {
		return
	}
	delete(sess.allocated, ack.Slot)
	sess.Observe(rec.level, ack.Covered) // the QoE state behind MeanQ and delta
	quality := 0.0
	if ack.Displayed {
		quality = float64(rec.level)
	}
	// The breaker rides the SLO's alert state.
	c.cfg.Breaker.Observe(sess.user, c.cfg.SLO.ObserveSlot(sess.user, ack.Displayed, quality))
	// A full delay window drops its oldest sample by copying the rest down:
	// the array is reused and the samples keep their order.
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

// nack decides, at time now, the retransmissions of the tiles a client
// reported fragment-lost (the Discussion section's loss handling; on with
// RetransmitOnNack): one job per tile appended to batch, the payloads left
// to the performer.
func (c *decider) nack(sess *session, nack transport.Nack, now time.Time, batch []tileJob) []tileJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.metrics.nacks.Inc()
	c.metrics.nackTiles.Add(uint64(len(nack.Tiles)))
	if !c.cfg.RetransmitOnNack {
		return batch
	}
	// A resend goes out under the current slot (the frame's deadline has
	// passed, but the tile feeds the client's RAM) and keeps the NACKed
	// slot's trace, beside the first transmission and the client's receive.
	traceID := trace.TileTraceID(c.cfg.TraceEpoch, sess.user, nack.Slot)
	policy := c.cfg.RetryPolicy
	abandoned, maxAttempt := 0, 0
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
			abandoned++ // the ledger/RAM path supplies the cell later
			delete(sess.retries, id)
			delete(sess.retryFirst, id)
			continue
		}
		maxAttempt = max(maxAttempt, int(sess.retries[id]))
		if sess.retries[id] < 0xFF {
			sess.retries[id]++
		}
		batch = append(batch, tileJob{slot: c.slot, id: id, trace: traceID, origSlot: nack.Slot, retry: sess.retries[id]})
	}
	if len(batch) > 0 && policy.Enabled() {
		// One backoff per batch (one wire transmission), sized by its
		// most-retried tile.
		notBefore := now.Add(policy.Backoff(maxAttempt, sess.rng))
		for i := range batch {
			batch[i].notBefore = notBefore
		}
	}
	sess.retransmits += len(batch)
	c.metrics.retransmits.Add(uint64(len(batch)))
	if abandoned > 0 {
		c.metrics.retryAbandoned.Add(uint64(abandoned))
		sp := c.cfg.Tracer.Start(traceID, trace.StageAbandon, trace.SideServer, sess.user, nack.Slot)
		sp.SetTiles(abandoned)
		sp.SetOutcome(trace.OutcomeMissed)
		sp.End()
	}
	return batch
}

// capEstimate is the max-filter's estimate; the EMA, or InitialUserMbps,
// before the first sample.
func (sess *session) capEstimate() float64 {
	if len(sess.capSamples) == 0 {
		if sess.ema.Primed() {
			return sess.ema.Value()
		}
		return InitialUserMbps
	}
	return slices.Max(sess.capSamples)
}

// decide runs one slot and returns its plan, in user order, valid until the
// next call: a parallel build of every session's row (predict, capacity
// estimate, selection, rate and delay tables) by index, a stable compaction
// to the sessions that have posed, one merged solve, then per session the
// breaker's clamp, ledger admission and the allocation record. Decisions do
// not depend on SlotWorkers.
func (c *decider) decide(slot uint32) []planned {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slot = slot + 1
	if len(c.sessions) == 0 {
		return nil
	}
	c.metrics.slots.Inc()
	if n := len(c.sessions); cap(c.planBuf) < n {
		c.planBuf = make([]planned, n)
		c.userBuf = make([]core.UserInput, n)
	}
	c.userBuf = c.userBuf[:len(c.sessions)]
	c.pool.Run(len(c.sessions), step.Grain, c.buildFn)

	plans, users := c.planBuf[:0], c.userBuf[:0]
	for i, sess := range c.sessions {
		if c.userBuf[i].Rate != nil {
			plans = append(plans, planned{sess: sess})
			users = append(users, c.userBuf[i])
		}
	}
	if len(plans) == 0 {
		return nil
	}
	c.probBuf = core.SlotProblem{T: int(slot) + 1, Budget: c.budget, Users: users}
	decideStart := c.cfg.Tracer.Now()
	recording := c.cfg.Recorder.Enabled()
	// Unrecorded, Levels may alias solver scratch; commit copies them.
	allocation, slotTrace := step.Solve(c.cfg.Allocator, c.cfg.Params, &c.probBuf, recording, 0) // no counterfactuals live
	decideEnd := c.cfg.Tracer.Now()
	if recording {
		// No co-running optimum: the record carries no regret (the
		// attributor falls back to its forgone-gain proxy).
		rec := step.Record(c.cfg.Allocator.Name(), c.cfg.Params, int(slot), &c.probBuf, allocation, slotTrace)
		rec.SessionIDs = make([]uint32, len(plans))
		for i := range plans {
			rec.SessionIDs[i] = plans[i].sess.user
		}
		c.cfg.Recorder.Record(&rec)
	}
	for i := range plans {
		p := &plans[i]
		p.level = allocation.Levels[i]
		c.commit(p, slot, decideStart, decideEnd, len(plans))
	}
	return plans
}

// build is one session's build: the slot step on the predicted pose, shown
// its capacity estimate and delay model, into userBuf[i] (zero if it has
// not posed). Workers write disjoint scratch.
func (c *decider) build(i int) {
	sess := c.sessions[i]
	c.userBuf[i] = core.UserInput{}
	if sess.havePose {
		sess.Select(&c.env, sess.predictor.Predict())
		c.userBuf[i] = sess.Input(&c.env, sess.capEstimate(), sess)
	}
}

// commit settles one planned session after the solve: the breaker's clamp,
// admission against the delivery ledger and the allocation record.
func (c *decider) commit(p *planned, slot uint32, decideStart, decideEnd int64, n int) {
	sess := p.sess
	p.trace = trace.TileTraceID(c.cfg.TraceEpoch, sess.user, slot)
	// A tripped breaker caps the level the solve granted: fidelity goes
	// before the user does, without distorting the shared budget.
	if cap_ := c.cfg.Breaker.Cap(sess.user); cap_ > 0 && p.level > cap_ {
		bsp := c.cfg.Tracer.Start(p.trace, trace.StageBreaker, trace.SideServer, sess.user, slot)
		bsp.SetLevel(cap_)
		bsp.End()
		c.metrics.breakerCapped.Inc()
		p.level = cap_
	}
	c.metrics.allocLevel.Observe(float64(p.level))

	// Each planned user's trace records the one solve as its decide stage.
	dsp := c.cfg.Tracer.StartAt(p.trace, trace.StageDecide, trace.SideServer, sess.user, slot, decideStart)
	dsp.SetAlgo(c.cfg.Allocator.Name())
	dsp.SetLevel(p.level)
	dsp.SetTiles(n)
	dsp.EndAt(decideEnd)

	// Admission: the level's tile IDs, less those the ledger holds.
	asp := c.cfg.Tracer.Start(p.trace, trace.StageAdmit, trace.SideServer, sess.user, slot)
	ids := sess.idsBuf[:0]
	skipped := 0
	for _, tile := range sess.Sel {
		id, err := tiles.PackVideoID(sess.Cell, tile, p.level)
		if err != nil {
			c.cfg.Logf("server: pack id: %v", err)
			continue
		}
		if sess.ledger.Has(id) {
			skipped++
			continue // repetitive-tile suppression
		}
		ids = append(ids, id)
	}
	sess.idsBuf, p.ids = ids, ids
	asp.SetLevel(p.level)
	asp.SetTiles(len(ids))
	asp.End()

	if len(sess.allocated) >= maxAllocRecords {
		for old := range sess.allocated {
			if old+maxAllocRecords/2 < slot {
				delete(sess.allocated, old)
			}
		}
	}
	sess.allocated[slot] = allocRecord{level: p.level, rate: sess.Rates[p.level-1]}
	sess.levelSum += p.level
	sess.slotsServed++
	sess.tilesSent += len(ids)
	sess.tilesSkipped += skipped
	c.metrics.tilesSent.Add(uint64(len(ids)))
	c.metrics.tilesSkipped.Add(uint64(skipped))
}

// DelayTableInto is the server's delay model (a step.DelayModel): the
// polynomial regression over measured ACK delays (Section V), floored near
// the estimated capacity by the M/M/1 model (eq. (13)), whose queueing cliff
// the slot-bounded samples cannot show and which keeps the allocator from
// riding the estimate into overload. Steady-state calls allocate nothing
// (modelBuf, fitter). len(out) must equal len(rates).
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
		d := max(fit.Predict(r), 0)
		if r > 0.85*capMbps && model[i] > d {
			d = model[i]
		}
		out[i] = d
	}
}

// Stats snapshots per-user server-side statistics.
func (c *decider) Stats() []UserStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]UserStats, 0, len(c.sessions))
	for _, sess := range c.sessions {
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
		_, st.BytesSent, _ = sess.sender.Stats()
		out = append(out, st)
	}
	return out
}

// ExportSession snapshots a session's portable state for migration and
// marks it handed off; it keeps streaming until ReleaseSession. The split
// lets the coordinator adopt the state on the target shard and repoint the
// client's Redirect hook first, so the redial cannot race the adoption and
// resume cold. The session retires as a handoff (its SLO window and
// breaker state stay alive for the adopting shard).
func (c *decider) ExportSession(user uint32) (*HandoffState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sess, err := c.lookup("export", user)
	if err != nil {
		return nil, err
	}
	sess.handoff = true
	ring := sess.capSamples
	st := &HandoffState{
		User:       user,
		Token:      HandoffToken(user, c.slot, c.cfg.ShardID, c.coordEpoch),
		FromShard:  c.cfg.ShardID,
		Slot:       c.slot,
		Epoch:      c.coordEpoch,
		ViewState:  sess.ViewState,
		EstMbps:    sess.ema.Value(),
		EMAPrimed:  sess.ema.Primed(),
		CapSamples: append(append([]float64(nil), ring[sess.capIdx:]...), ring[:sess.capIdx]...),
		DelayRates: slices.Clone(sess.delayRates),
		DelayMs:    slices.Clone(sess.delayMs),
	}
	c.cfg.Logf("server: exporting user %d at slot %d (token %016x)", user, c.slot, st.Token)
	return st, nil
}

// AdoptSession registers handed-off state; the user's next Hello (the
// migrating client's redial) resumes from it and is answered
// Welcome{Resumed: true}. State stamped by a term older than this shard has
// witnessed, or whose token does not reproduce from its own fields, is a
// deposed leader's replay: it is rejected with ErrStaleEpoch and counted in
// collabvr_fleet_coord_fenced_total, so a session never gets two owners.
func (c *decider) AdoptSession(st *HandoffState) error {
	if st == nil || st.Token == 0 {
		return errors.New("server: adopt: missing handoff state or token")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("server: adopt: server closed")
	}
	if c.draining {
		return errors.New("server: adopt: server draining")
	}
	if st.Epoch < c.coordEpoch {
		c.metrics.coordFenced.Inc()
		return fmt.Errorf("server: adopt: %w: state epoch %d < shard epoch %d",
			ErrStaleEpoch, st.Epoch, c.coordEpoch)
	}
	if st.Token != HandoffToken(st.User, st.Slot, st.FromShard, st.Epoch) {
		c.metrics.coordFenced.Inc()
		return fmt.Errorf("server: adopt: %w: token %016x does not match its handoff event",
			ErrStaleEpoch, st.Token)
	}
	c.coordEpoch = max(c.coordEpoch, st.Epoch) // adoption itself proves the newer term
	c.adopted[st.User] = st
	return nil
}

// CancelExport rolls back an ExportSession whose migration fell through:
// the session keeps streaming here and retires as a departure.
func (c *decider) CancelExport(user uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sess, err := c.lookup("cancel export", user)
	if err == nil {
		sess.handoff = false
	}
	return err
}

// DropAdopted undoes an AdoptSession no redial has consumed yet; it reports
// whether state was pending.
func (c *decider) DropAdopted(user uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.adopted[user]
	delete(c.adopted, user)
	return ok
}

// SetCoordEpoch advances the shard's witnessed coordinator term; a lower
// value (an old leader's late broadcast) cannot lower the fence.
func (c *decider) SetCoordEpoch(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.coordEpoch = max(c.coordEpoch, epoch)
}

// CoordEpoch returns the highest coordinator term the shard has witnessed.
func (c *decider) CoordEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coordEpoch
}

// SetBudget moves the live budget B(t), as a fleet coordinator does on
// every rebalance; non-positive values are ignored.
func (c *decider) SetBudget(mbps float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mbps > 0 {
		c.budget = mbps
	}
}

// Budget returns the live value of B(t).
func (c *decider) Budget() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget
}

// SessionCount returns the number of admitted sessions.
func (c *decider) SessionCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sessions)
}

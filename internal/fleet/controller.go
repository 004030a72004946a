package fleet

import (
	"fmt"
	"slices"

	"repro/internal/chaos"
	"repro/internal/fleet/coord"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// ControllerConfig parametrizes the fleet control plane. Shard i sits in zone
// i%Zones and starts from the equal split of GlobalBudgetMbps; a nil Scorer
// is LeastLoaded, a nil Recorder records nothing, Coord.Replicas <= 0 means 1.
type ControllerConfig struct {
	Shards, Zones    int
	GlobalBudgetMbps float64
	Scorer           Scorer
	Recorder         *obs.PlacementRecorder
	Rebalance        RebalanceConfig
	Evac             EvacConfig
	Coord            coord.Config
	// Health receives the fleet series on SampleHealth. The evacuation loop
	// reads its pressure from the page-frac series, so Evac without Health
	// gets a private store.
	Health *tsdb.Store
	// SessionDemandMbps, when positive, makes a shard's demand its session
	// count times this: the live engine has no per-session rate ladder, and
	// scorers only compare demand/budget ratios. Zero: demand is what
	// ObserveDemand last reported (the virtual-time engine measures it).
	SessionDemandMbps float64
	// Metrics, when non-nil, receives the collabvr_fleet_coord_* mirror of
	// the cluster's counters on every Tick.
	Metrics *obs.Registry
}

// ShardOutcome is one shard's end-of-run accounting.
type ShardOutcome struct {
	Shard int `json:"shard"`
	Zone  int `json:"zone"`
	// Placed counts arrival placements; MigratedIn/Out count sessions
	// adopted from / handed to other shards.
	Placed      int `json:"placed"`
	MigratedIn  int `json:"migrated_in"`
	MigratedOut int `json:"migrated_out"`
	// KilledSlot/DrainSlot are the slots the shard died / began draining
	// (-1 when it never did).
	KilledSlot int `json:"killed_slot"`
	DrainSlot  int `json:"drain_slot"`
	// PeakSessions is the shard's maximum concurrent session count.
	PeakSessions int `json:"peak_sessions"`
	// FinalBudgetMbps is the shard's budget share at the horizon.
	FinalBudgetMbps float64 `json:"final_budget_mbps"`
}

// CoordOutcome is the replicated coordinator's end-of-run accounting: the
// leadership history, the log frontier counters, and the convergence
// verdict the acceptance campaigns assert on.
type CoordOutcome struct {
	Replicas         int    `json:"replicas"`
	Term             uint64 `json:"term"`
	Elections        uint64 `json:"elections"`
	Commits          uint64 `json:"commits"`
	Rejected         uint64 `json:"rejected"`
	SnapshotInstalls uint64 `json:"snapshot_installs"`
	// LeaderlessSlots counts slots whose Tick left the cluster unable to
	// accept ownership mutations (dead leader's lease draining, or quorum
	// lost) — the control-plane blackout the election timeout bounds.
	LeaderlessSlots int `json:"leaderless_slots"`
	// Converged reports whether every alive replica finished with an
	// identical applied owner map — the single-owner invariant.
	Converged bool `json:"converged"`
}

// Outcome is the control plane's accounting so far. Placements counts
// committed arrivals, Migrations every committed ownership move, Evacuations
// the ones the SLO-pressure loop made, in EvacBatches cooldown-spaced batches;
// Fleet is the /debug/fleet document, less the placement-record tail.
type Outcome struct {
	Shards                                                       []ShardOutcome
	Placements, Migrations, Rebalances, Evacuations, EvacBatches int
	Coord                                                        CoordOutcome
	Fleet                                                        obs.FleetSnapshot
}

// ShardEventKind is what a shard fault does at one slot: the shard crashes,
// starts draining (no placements, sessions handed off), or ends a bounded
// drain and rejoins empty.
type ShardEventKind uint8

const (
	ShardKilled ShardEventKind = iota + 1
	ShardDrainStarted
	ShardDrainEnded
)

// ShardEvent is one shard fault firing.
type ShardEvent struct {
	Kind  ShardEventKind
	Shard int
}

// EvacCandidate is one session an engine offers for evacuation: Paging is its
// SLO state as last observed, Ref the engine's own handle, returned untouched.
type EvacCandidate struct {
	ID     uint32
	Zone   int
	Paging bool
	Ref    int
}

// Controller is the fleet control plane: who owns which session, how B(t)
// is split, who moves when a shard dies, drains or pages. It owns the
// replicated owner map, the router, the rebalancer, the evacuation
// hysteresis, the per-shard book and the health series — no lock, no socket,
// no clock. Every method decides and records; the engine that calls it
// performs the effect (load.SimulateFleet moves a virtual session and charges
// its outage, Live exports, adopts and releases a real one), so both run one
// state machine. Not safe for concurrent use: Live guards it with its mutex,
// the virtual-time engine calls it from its serial passes only.
type Controller struct {
	cfg     ControllerConfig
	cluster *coord.Cluster
	router  *Router
	rb      *Rebalancer
	evac    *Evacuator

	// The per-shard book. view is its live half and the router's input:
	// alive, draining, budget, demand and the session tally — Tally counts a
	// session once per observation pass, placements and moves keep the count
	// current in between (paging likewise). book is what Outcome reports.
	view   []ShardState
	paging []int
	book   []ShardOutcome

	slot       int
	lastTerm   uint64
	leaderless int
	// pendingForgets: departures the log rejected while leaderless, replayed
	// by Tick. The session is gone, so a stale binding is never load-bearing.
	pendingForgets          []uint32
	migrations, evacuations int

	health                      *tsdb.Store
	series                      []shardSeries
	hActive, hEvacTotal, hFleet *tsdb.Series

	accepting []bool // scratch, so the per-slot calls allocate nothing
	evacTo    []int
	evacIDs   []uint32

	// The cluster's counters mirrored into the obs registry as deltas; the
	// instruments are nil, and the mirror one comparison, without a registry.
	cmTerm, cmLeader                           *obs.Gauge
	cmElections, cmCommits, cmRejected, cmInst *obs.Counter
	cmPrev                                     coord.Status
}

type shardSeries struct{ sessions, budget, demand, pageFrac, quality *tsdb.Series }

// CheckProfile rejects a chaos profile targeting a shard or replica out of range.
func CheckProfile(p *chaos.Profile, shards, replicas int) error {
	if m := p.MaxShard(); m >= shards {
		return fmt.Errorf("fleet: chaos profile targets shard %d but the fleet has %d shards", m, shards)
	}
	if m := p.MaxReplica(); m >= max(replicas, 1) {
		return fmt.Errorf("fleet: chaos profile targets coordinator replica %d but the cluster has %d", m, max(replicas, 1))
	}
	return nil
}

// NewController builds the control plane: every shard alive and empty.
func NewController(cfg ControllerConfig) *Controller {
	r := cfg.Metrics
	c := &Controller{
		cfg:       cfg,
		cluster:   coord.New(cfg.Coord),
		router:    NewRouter(cfg.Scorer, cfg.Recorder),
		rb:        NewRebalancer(cfg.Rebalance, cfg.Shards),
		evac:      NewEvacuator(cfg.Evac, cfg.Shards),
		view:      make([]ShardState, cfg.Shards),
		paging:    make([]int, cfg.Shards),
		book:      make([]ShardOutcome, cfg.Shards),
		series:    make([]shardSeries, cfg.Shards),
		accepting: make([]bool, cfg.Shards),
		health:    cfg.Health,

		cmTerm:      r.Gauge("collabvr_fleet_coord_term"),
		cmLeader:    r.Gauge("collabvr_fleet_coord_leader"),
		cmElections: r.Counter("collabvr_fleet_coord_elections_total"),
		cmCommits:   r.Counter("collabvr_fleet_coord_commits_total"),
		cmRejected:  r.Counter("collabvr_fleet_coord_rejected_total"),
		cmInst:      r.Counter("collabvr_fleet_coord_snapshot_installs_total"),
	}
	if c.health == nil && c.evac != nil {
		c.health = tsdb.New(tsdb.Options{})
	}
	for i := range c.view {
		zone := i % cfg.Zones
		c.view[i] = ShardState{ID: i, Zone: zone, Alive: true, BudgetMbps: cfg.GlobalBudgetMbps / float64(cfg.Shards)}
		c.book[i] = ShardOutcome{Shard: i, Zone: zone, KilledSlot: -1, DrainSlot: -1}
		c.series[i] = shardSeries{
			sessions: c.health.ShardSeries("fleet_shard_sessions", tsdb.Gauge, i),
			budget:   c.health.ShardSeries("fleet_shard_budget_mbps", tsdb.Gauge, i),
			demand:   c.health.ShardSeries("fleet_shard_demand_mbps", tsdb.Gauge, i),
			pageFrac: c.health.ShardSeries("fleet_shard_page_frac", tsdb.Gauge, i),
		}
	}
	c.hActive = c.health.Series("fleet_active_sessions", tsdb.Gauge)
	c.hEvacTotal = c.health.Series("fleet_evacuations_total", tsdb.Counter)
	return c
}

// Reserve sizes the owner map for sessions concurrent sessions.
func (c *Controller) Reserve(sessions int) { c.cluster.Reserve(sessions) }

// Faults opens a slot: it sets the clock, applies the profile's coordinator
// faults due (kills, the restart that ends a bounded kill, partitions) and
// lists the shard faults that fire, in profile order — a bounded drain ends at
// start + duration — for the engine to Apply in turn. It comes before Tick, so
// a leader killed this slot is already dead when the slot's mutations propose.
func (c *Controller) Faults(p *chaos.Profile, slot int) (events []ShardEvent) {
	c.slot = slot
	if p == nil {
		return nil
	}
	for i := range p.Faults {
		f := &p.Faults[i]
		starts, ends := f.StartSlot == slot, f.DurationSlots > 0 && f.StartSlot+f.DurationSlots == slot
		switch {
		case f.Kind == chaos.FaultCoordKill && starts:
			c.cluster.Kill(f.Replica)
		case f.Kind == chaos.FaultCoordKill && ends:
			c.cluster.Restart(f.Replica)
		case f.Kind == chaos.FaultCoordPartition && starts:
			c.cluster.Partition(f.Replica, int64(slot+f.DurationSlots))
		case f.Kind == chaos.FaultShardKill && starts:
			events = append(events, ShardEvent{ShardKilled, f.Shard})
		case f.Kind == chaos.FaultShardDrain && starts:
			events = append(events, ShardEvent{ShardDrainStarted, f.Shard})
		case f.Kind == chaos.FaultShardDrain && ends:
			events = append(events, ShardEvent{ShardDrainEnded, f.Shard})
		}
	}
	return events
}

// Apply books a shard event and reports whether it changed anything (a dead
// shard cannot die or drain again; only a draining shard rejoins). After a
// kill or a drain start the engine moves the shard's sessions — Reroute, or
// its own protocol around Route and Flip — then calls Resplit; a drain end
// needs only the Resplit.
func (c *Controller) Apply(ev ShardEvent) bool {
	v, b := &c.view[ev.Shard], &c.book[ev.Shard]
	switch {
	case ev.Kind == ShardKilled && v.Alive:
		v.Alive, b.KilledSlot = false, c.slot
	case ev.Kind == ShardDrainStarted && v.Alive && !v.Draining:
		v.Draining, b.DrainSlot = true, c.slot
	case ev.Kind == ShardDrainEnded && v.Draining:
		v.Draining = false
	default:
		return false
	}
	return true
}

// Tick advances the control plane to slot: the cluster renews its lease or
// elects, departures queued while it was leaderless replay, a slot left
// without a leader is counted. A non-zero result is a new term — the fencing
// epoch the engine hands its shards before any migration decided under it.
func (c *Controller) Tick(slot int) (epoch uint64) {
	c.slot = slot
	c.cluster.Tick(int64(slot))
	if term := c.cluster.Term(); term != c.lastTerm {
		c.lastTerm, epoch = term, term
	}
	if !c.cluster.Available() {
		c.leaderless++
	} else if len(c.pendingForgets) > 0 {
		c.pendingForgets = slices.DeleteFunc(c.pendingForgets, func(user uint32) bool {
			return c.cluster.Propose(coord.Op{Kind: coord.OpForget, Session: user}) == nil
		})
	}
	if c.cmTerm != nil {
		st := c.cluster.Status()
		c.cmTerm.Set(float64(st.Term))
		c.cmLeader.Set(float64(st.Leader))
		c.cmElections.Add(st.Elections - c.cmPrev.Elections)
		c.cmCommits.Add(st.Commits - c.cmPrev.Commits)
		c.cmRejected.Add(st.Rejected - c.cmPrev.Rejected)
		c.cmInst.Add(st.SnapshotInstalls - c.cmPrev.SnapshotInstalls)
		c.cmPrev = st
	}
	return epoch
}

// States is the router's view, refreshed from the tallies: O(shards), no
// sweep of the sessions. It is the book itself — read it, do not keep it.
func (c *Controller) States() []ShardState {
	for i := range c.view {
		v := &c.view[i]
		v.PageFrac = 0
		if v.Sessions > 0 {
			v.PageFrac = float64(c.paging[i]) / float64(v.Sessions)
		}
		if c.cfg.SessionDemandMbps > 0 {
			v.DemandMbps = float64(v.Sessions) * c.cfg.SessionDemandMbps
		}
	}
	return c.view
}

// Place admits an arriving session: scores the shards, records the decision
// and commits the binding through the log. A leaderless cluster cannot own the
// arrival, which fails fast (coord.Unavailable(err)) for the caller to retry.
func (c *Controller) Place(sess SessionInfo) (int, error) {
	if !c.cluster.Available() {
		return -1, fmt.Errorf("fleet: place session %d: %w", sess.ID, coord.ErrUnavailable)
	}
	to := c.route(sess, -1, obs.PlaceArrival)
	if to < 0 {
		return -1, fmt.Errorf("fleet: no shard can accept session %d", sess.ID)
	}
	if err := c.cluster.Propose(coord.Op{Kind: coord.OpPlace, Session: sess.ID, Shard: to}); err != nil {
		return -1, fmt.Errorf("fleet: place session %d: %w", sess.ID, err)
	}
	c.book[to].Placed++
	c.view[to].Sessions++
	return to, nil
}

// Forget drops a departed session's binding; rejected, it waits for Tick.
func (c *Controller) Forget(user uint32) {
	if c.cluster.Propose(coord.Op{Kind: coord.OpForget, Session: user}) != nil {
		c.pendingForgets = append(c.pendingForgets, user)
	}
	c.evac.forget(user)
}

// route picks the best shard other than from and records the decision under
// reason; -1 when none can take the session. It commits nothing: an engine
// whose handoff can fail (Live's) calls Flip once the state has landed.
func (c *Controller) route(sess SessionInfo, from int, reason string) int {
	return c.router.Place(c.slot, sess, c.States(), reason, from)
}

// flip commits a session's move through the log and books it; on an error
// nothing changed.
func (c *Controller) flip(user uint32, from, to int, paging bool) error {
	if err := c.cluster.Propose(coord.Op{Kind: coord.OpFlip, Session: user, From: from, Shard: to}); err != nil {
		return err
	}
	c.moved(from, to, paging)
	return nil
}

func (c *Controller) moved(from, to int, paging bool) {
	c.view[from].Sessions--
	c.view[to].Sessions++
	if paging {
		c.paging[from]--
		c.paging[to]++
	}
	c.book[from].MigratedOut++
	c.book[to].MigratedIn++
	c.migrations++
}

// Reroute moves a session off a dead or draining shard: Route, then Flip.
// With to < 0 nothing changed: pending means the cluster is leaderless — the
// engine keeps the session pending (in its own terms: blacked out, or
// reconnect-polling) and retries once a leader is back — !pending that no
// shard can take it.
func (c *Controller) Reroute(sess SessionInfo, from int, paging bool) (to int, pending bool) {
	if !c.cluster.Available() {
		return -1, true
	}
	reason := obs.PlaceShardDrain
	if !c.view[from].Alive {
		reason = obs.PlaceShardKill
	}
	if to = c.route(sess, from, reason); to >= 0 && c.flip(sess.ID, from, to, paging) != nil {
		return -1, true
	}
	return to, false
}

// ResetTallies zeroes the session and paging counts ahead of an observation
// pass that will Tally every live session once.
func (c *Controller) ResetTallies() {
	clear(c.paging)
	for i := range c.view {
		c.view[i].Sessions = 0
	}
}

// Tally counts one observed session into its shard's row of the view.
func (c *Controller) Tally(shard int, paging bool) {
	v := &c.view[shard]
	v.Sessions++
	if paging {
		c.paging[shard]++
	}
	if v.Sessions > c.book[shard].PeakSessions {
		c.book[shard].PeakSessions = v.Sessions
	}
}

// ObserveDemand folds a shard's observed demand into the view and the
// rebalancer's estimate.
func (c *Controller) ObserveDemand(shard int, mbps float64) {
	c.view[shard].DemandMbps = mbps
	c.rb.Observe(shard, mbps)
}

// Resplit re-splits the global budget over the accepting shards from the
// smoothed demand, through the log, so every replica replays one share
// history. A leaderless cluster postpones it (nil: budgets ride unchanged).
// The result is the committed shares, zero for a shard that is not accepting.
func (c *Controller) Resplit() []float64 {
	for i := range c.view {
		c.accepting[i] = c.view[i].accepting()
	}
	shares := c.rb.Shares(c.cfg.GlobalBudgetMbps, c.accepting)
	if c.cluster.Propose(coord.Op{Kind: coord.OpBudgetSplit, Shares: shares}) != nil {
		return nil
	}
	for i, share := range shares {
		c.view[i].BudgetMbps = share
	}
	return shares
}

// Rebalance is Resplit on the rebalancer's cadence; nil off it.
func (c *Controller) Rebalance(slot int) []float64 {
	if !c.rb.due(slot) {
		return nil
	}
	return c.Resplit()
}

// SampleHealth folds the view into the health series at slot; EvacDue reads
// the page-frac window from here, so sample first. An engine that measures
// slot quality passes each shard's sum and count of it and the fleet's mean;
// one that does not passes nil and gets no quality series.
func (c *Controller) SampleHealth(slot int, qualSum []float64, qualCnt []int, fleetQuality float64) {
	if c.health == nil {
		return
	}
	at, total := int64(slot), 0
	for i, st := range c.States() {
		c.series[i].sessions.Observe(at, float64(st.Sessions))
		c.series[i].budget.Observe(at, st.BudgetMbps)
		c.series[i].demand.Observe(at, st.DemandMbps)
		c.series[i].pageFrac.Observe(at, st.PageFrac)
		total += st.Sessions
	}
	c.hActive.Observe(at, float64(total))
	c.hEvacTotal.Observe(at, float64(c.evacuations))
	if qualSum == nil {
		return
	}
	if c.hFleet == nil {
		c.hFleet = c.health.Series("fleet_slot_quality", tsdb.Gauge)
		for i := range c.series {
			c.series[i].quality = c.health.ShardSeries("fleet_shard_slot_quality", tsdb.Gauge, i)
		}
	}
	for i, sum := range qualSum {
		q := 0.0
		if qualCnt[i] > 0 {
			q = sum / float64(qualCnt[i])
		}
		c.series[i].quality.Observe(at, q)
	}
	c.hFleet.Observe(at, fleetQuality)
}

// EvacDue advances a shard's evacuation hysteresis with the mean of its
// rolling page-frac window — never the instantaneous sample — and reports
// whether it hands off a batch this slot. Dead and draining shards never do;
// with no leader the hysteresis is untouched, so the batch fires once one is
// back.
func (c *Controller) EvacDue(shard, slot int) bool {
	if c.evac == nil || !c.view[shard].accepting() || !c.cluster.Available() {
		return false
	}
	w := c.series[shard].pageFrac.Stats(c.evac.Config().WindowSlots)
	pressure := 0.0
	if w.Count > 0 {
		pressure = w.Mean()
	}
	return c.evac.Update(shard, int64(slot), pressure, w.Count)
}

// EvacBatch picks one batch from the engine's candidates (its sessions on the
// due shard, in its own stable order): those outside their re-migration
// cooldown, paging first — the ones a fresh shard can still save — capped at
// BatchSessions. It reorders and trims cands in place.
func (c *Controller) EvacBatch(cands []EvacCandidate, slot int) []EvacCandidate {
	cands = slices.DeleteFunc(cands, func(v EvacCandidate) bool {
		return !c.evac.allowSession(v.ID, int64(slot))
	})
	slices.SortStableFunc(cands, func(a, b EvacCandidate) int {
		switch {
		case a.Paging == b.Paging:
			return 0
		case a.Paging:
			return -1
		}
		return 1
	})
	return cands[:min(len(cands), c.evac.Config().BatchSessions)]
}

// noteEvacuated books an SLO-pressure move and starts the session's cooldown.
func (c *Controller) noteEvacuated(user uint32, slot int) {
	c.evac.noteMigration(user, int64(slot))
	c.evacuations++
}

// Evacuate moves a batch whose handoff cannot fail — the virtual-time
// engine's: victims are routed and booked in turn, up to the first no shard
// can take, and commit as one evac-batch log entry per target. targets[k] is
// victims[k]'s new shard, valid until the next call. (Live migrates each
// victim, flipping it as its state lands, then calls noteEvacuated.)
func (c *Controller) Evacuate(from, slot int, victims []EvacCandidate) (targets []int) {
	c.evacTo = c.evacTo[:0]
	for _, v := range victims {
		to := c.route(SessionInfo{ID: v.ID, Zone: v.Zone}, from, obs.PlaceSLOPressure)
		if to < 0 {
			break
		}
		c.moved(from, to, v.Paging)
		c.noteEvacuated(v.ID, slot)
		c.evacTo = append(c.evacTo, to)
	}
	// One entry per distinct target, first seen first, sessions in move order.
	// EvacDue saw a leader and nothing since can depose it: no rejection.
	for k, to := range c.evacTo {
		if slices.Contains(c.evacTo[:k], to) {
			continue
		}
		c.evacIDs = c.evacIDs[:0]
		for j := k; j < len(c.evacTo); j++ {
			if c.evacTo[j] == to {
				c.evacIDs = append(c.evacIDs, victims[j].ID)
			}
		}
		_ = c.cluster.Propose(coord.Op{Kind: coord.OpEvacBatch, Shard: to, From: from, Batch: c.evacIDs})
	}
	return c.evacTo
}

// available reports whether the log would accept a mutation right now.
func (c *Controller) available() bool { return c.cluster.Available() }

// owner resolves a session's shard from the cluster's read replica (it may
// lag during a failover; a stale shard has no session and the next lookup
// lands on the committed owner).
func (c *Controller) owner(user uint32) (int, bool) { return c.cluster.Lookup(user) }

// eachOwner visits every binding, in map order — sort when order matters.
func (c *Controller) eachOwner(fn func(user uint32, shard int)) { c.cluster.Each(fn) }

// healthStore is the store the fleet series land in, nil when nothing asked for one.
func (c *Controller) healthStore() *tsdb.Store { return c.health }

// coordKill crashes coordinator replica i, as a coord_kill fault does.
func (c *Controller) coordKill(i int) { c.cluster.Kill(i) }

// coordStatus snapshots the cluster for /debug/coord.
func (c *Controller) coordStatus() coord.Status { return c.cluster.Status() }

func (c *Controller) Outcome() Outcome {
	o := Outcome{
		Shards:      slices.Clone(c.book),
		Migrations:  c.migrations,
		Rebalances:  c.rb.rebalanceCount(),
		Evacuations: c.evacuations,
		EvacBatches: c.evac.batchCount(),
		Coord: CoordOutcome{
			Replicas:         c.cluster.Replicas(),
			Term:             c.cluster.Term(),
			Elections:        c.cluster.Elections(),
			Commits:          c.cluster.Commits(),
			Rejected:         c.cluster.Rejected(),
			SnapshotInstalls: c.cluster.SnapshotInstalls(),
			LeaderlessSlots:  c.leaderless,
			Converged:        c.cluster.Converged(),
		},
		Fleet: obs.FleetSnapshot{
			Scorer:           c.router.scorerName(),
			GlobalBudgetMbps: c.cfg.GlobalBudgetMbps,
			Slot:             c.slot,
			Placements:       c.router.placedCount(),
			Migrations:       c.migrations,
			Rebalances:       c.rb.rebalanceCount(),
			Evacuations:      c.evacuations,
			RingCapacity:     c.cfg.Recorder.RingCapacity(),
			RingDropped:      c.cfg.Recorder.Dropped(),
		},
	}
	for i, st := range c.States() {
		b := &o.Shards[i]
		b.FinalBudgetMbps = st.BudgetMbps
		o.Placements += b.Placed
		o.Fleet.Shards = append(o.Fleet.Shards, obs.FleetShardState{
			Shard: i, Zone: st.Zone, Alive: st.Alive, Draining: st.Draining,
			Sessions: st.Sessions, BudgetMbps: st.BudgetMbps, DemandMbps: st.DemandMbps, PageFrac: st.PageFrac,
			Placed: b.Placed, MigratedIn: b.MigratedIn, MigratedOut: b.MigratedOut,
		})
	}
	return o
}

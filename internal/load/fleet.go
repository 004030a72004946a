package load

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fleet/coord"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/step"
)

// FleetSimConfig parametrizes the deterministic fleet engine: N virtual
// shards behind the fleet router, sharing the GLOBAL budget Sim.BudgetMbps.
type FleetSimConfig struct {
	// Sim carries the per-shard engine knobs. Sim.BudgetMbps is the
	// fleet-wide budget B(t); the rebalancer splits it across shards.
	// Sim.Chaos's shard and coordinator faults drive the fleet layer; its
	// session-scoped faults apply per session.
	Sim SimConfig
	// Shards is the virtual shard count (default 3).
	Shards int
	// Zones is the locality-zone count; shard i sits in zone i%Zones and
	// session n in zone n%Zones (default Shards).
	Zones int
	// Scorer names the placement policy (fleet.ScorerByName; default
	// least-loaded).
	Scorer string
	// MigrationOutageSlots is the per-session blackout while a session
	// hands off between shards: the client redials, so these slots are
	// charged as forced deadline misses (default 2; negative = none). This
	// is the "degrades" in degrades-not-drops.
	MigrationOutageSlots int
	// Recorder, when non-nil, captures every placement decision.
	Recorder *obs.PlacementRecorder
	// Health, when non-nil, receives per-shard and fleet-aggregate series
	// every slot (fleet_shard_* keyed by shard, fleet_* fleet-wide). The
	// store is deterministic on the slot clock: same workload + config =
	// bit-identical export.
	Health *tsdb.Store
	// Evac turns on the SLO-pressure evacuation loop: shards whose rolling
	// page-fraction window stays above the enter threshold hand sessions to
	// the rest of the fleet in cooldown-spaced batches. Needs a pressure
	// history, so an internal health store is created when Health is nil.
	Evac fleet.EvacConfig
	// Coordinators is the coordinator replica count for the replicated
	// owner map (zero or less means 1 — a single replica commits every
	// proposal directly, allocation-free, and decides exactly what a
	// fault-free larger cluster decides; 2f+1 replicas tolerate f crashes,
	// with ownership mutations stalling at most Coord.LeaseSlots per leader
	// loss).
	Coordinators int
	// Coord tunes the replicated coordinator beyond the replica count
	// (lease length, snapshot cadence). A Coord.Replicas set without
	// Coordinators is the count; withDefaults folds the two into one.
	Coord coord.Config
}

// foldReplicas returns the one coordinator replica count a fleet config
// carries — coordinators when set, else c.Replicas, else 1 — and writes it
// back into c, so the profile check and the cluster see the same count.
func foldReplicas(coordinators int, c *coord.Config) int {
	if coordinators <= 0 {
		coordinators = max(c.Replicas, 1)
	}
	c.Replicas = coordinators
	return coordinators
}

func (c FleetSimConfig) withDefaults() FleetSimConfig {
	c.Sim = c.Sim.withDefaults()
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.Zones <= 0 {
		c.Zones = c.Shards
	}
	if c.MigrationOutageSlots == 0 {
		c.MigrationOutageSlots = 2
	}
	if c.MigrationOutageSlots < 0 {
		c.MigrationOutageSlots = 0
	}
	c.Coordinators = foldReplicas(c.Coordinators, &c.Coord)
	return c
}

// FleetReport aggregates one fleet-sim run: the fleet-wide RunReport plus
// the router/rebalancer accounting the single-server report has no place
// for.
type FleetReport struct {
	RunReport
	Scorer     string               `json:"scorer"`
	Shards     []fleet.ShardOutcome `json:"shards"`
	Placements int                  `json:"placements"`
	// PlacementsFailed counts arrivals no shard could accept (dropped).
	PlacementsFailed int `json:"placements_failed"`
	Migrations       int `json:"migrations"`
	Rebalances       int `json:"rebalances"`
	// OutageSlots counts session-slots charged as forced misses during
	// migration blackouts.
	OutageSlots int `json:"outage_slots"`
	// Evacuations counts sessions migrated by the SLO-pressure loop;
	// EvacBatches how many cooldown-spaced batches fired.
	Evacuations int `json:"evacuations,omitempty"`
	EvacBatches int `json:"evac_batches,omitempty"`
	// Coord summarizes the replicated coordinator's run.
	Coord *fleet.CoordOutcome `json:"coord,omitempty"`
	// Fleet is the control plane's final /debug/fleet document.
	Fleet obs.FleetSnapshot `json:"-"`
}

// setControl copies the control plane's accounting into the report.
func (r *FleetReport) setControl(o fleet.Outcome) {
	r.Shards = o.Shards
	r.Placements = o.Placements
	r.Migrations = o.Migrations
	r.Rebalances = o.Rebalances
	r.Evacuations = o.Evacuations
	r.EvacBatches = o.EvacBatches
	r.Coord = &o.Coord
	r.Fleet = o.Fleet
}

// FormatFleet renders the fleet addendum under the standard report.
func (r *FleetReport) FormatFleet() string {
	var b strings.Builder
	b.WriteString(r.RunReport.Format())
	fmt.Fprintf(&b, "fleet: scorer %s, placements %d (failed %d), migrations %d, rebalances %d, outage session-slots %d\n",
		r.Scorer, r.Placements, r.PlacementsFailed, r.Migrations, r.Rebalances, r.OutageSlots)
	if c := r.Coord; c != nil {
		fmt.Fprintf(&b, "coord: %d replica(s), term %d, elections %d, commits %d, rejected %d, snapshots %d, leaderless slots %d, converged %v\n",
			c.Replicas, c.Term, c.Elections, c.Commits, c.Rejected, c.SnapshotInstalls, c.LeaderlessSlots, c.Converged)
	}
	fmt.Fprintf(&b, "%-6s %5s %6s %7s %7s %7s %6s %6s %10s\n",
		"shard", "zone", "placed", "mig-in", "mig-out", "peak", "killed", "drain", "budget")
	for _, s := range r.Shards {
		fmt.Fprintf(&b, "%-6d %5d %6d %7d %7d %7d %6d %6d %10.1f\n",
			s.Shard, s.Zone, s.Placed, s.MigratedIn, s.MigratedOut,
			s.PeakSessions, s.KilledSlot, s.DrainSlot, s.FinalBudgetMbps)
	}
	return b.String()
}

// fleetPlace is a session's fleet coordinates and slot flags: what
// placement sets, whole, when an arena value becomes a new arrival.
type fleetPlace struct {
	zone        int
	shard       int
	outageUntil int // slot before which the session is mid-handoff
	// row is the session's row in its shard's slot problem, set by the
	// slot's bucketing pass; -1 when it is blacked out this slot.
	row int32
	// pendingFlip marks a session whose ownership flip could not commit —
	// the coordinator was leaderless when its shard failed. The session is
	// blacked out (exported but not adopted) until the survivors elect and
	// the flip commits through the log.
	pendingFlip bool
	// paging mirrors the session's SLO state as of its last observation (the
	// state only changes there), so the router view and the evacuation
	// ordering read a field instead of locking the monitor.
	paging bool
	// ready marks the session's inputs set up (ensureInputs).
	ready bool
}

// blackout charges the session's slot as a forced miss, like a deadline
// miss — degraded, not dropped: it is mid-handoff, stranded on a dead shard,
// or exported with its flip waiting on a coordinator election. The head
// keeps moving, so the predictor still sees the pose, and the link's
// capacity moves on with the slot: the slot's prologue steps both, run here
// if nothing ran it, and its plan goes unused. The chaos injector does not
// advance.
func (s *simSession) blackout(env *simEnv, slot int) {
	if !s.prepped(slot) {
		s.prologue(env, slot)
	}
	s.missed++
	s.ForcedMiss(&s.acc, env.deadlineMs)
	s.observe(env.cfg, false, 0)
}

// ensureInputs sets up the session's inputs (walker, capacity cursor,
// predictor, QoE accumulator, chaos injector) if its placement deferred
// them. Placement only needs the spec; the set-up is the expensive part of
// an arrival and shares nothing, so it runs in the slot's build loop.
func (s *simSession) ensureInputs(env *simEnv) {
	if !s.ready {
		env.setUp(s, s.spec)
		s.ready = true
	}
}

// fleetShard is one virtual shard's slot scratch. Once the budget is split
// the shards' slot problems share nothing, so each shard solves on its own
// allocator and its own buffers while the others build or solve.
type fleetShard struct {
	alloc  core.Allocator
	owned  []*simSession // the sessions placed on the shard, arrival order
	rows   []servedRow   // owned minus the blacked out: the problem's rows
	users  []core.UserInput
	values []float64 // the shard's objective table, one slab, row by row
	// pending counts the shard's chunks still to build this slot; whoever
	// builds the last one solves the shard.
	pending atomic.Int32

	// One slot's results, valid until the shard's next solve.
	demand     float64
	solveNs    int64 // the solve's wall time, measured only for spans
	problem    core.SlotProblem
	allocation core.Allocation
	trace      *core.SlotTrace
}

// servedRow is one row of a shard's slot problem: the session and, once the
// shard is solved, its charge for the tally — the level after the breaker's
// clamp, the delivered rate and delay, the miss and whether the clamp bit.
type servedRow struct {
	s              *simSession
	q              int
	rate, delay    float64
	missed, capped bool
}

// quality is the displayed quality: the level, or 0 for a miss.
func (r *servedRow) quality() float64 {
	if r.missed {
		return 0
	}
	return float64(r.q)
}

// fleetChunk is at most step.Grain of one shard's owned sessions, the unit
// the slot's parallel loop claims.
type fleetChunk struct{ shard, lo, hi int }

// slotWork is what a slot's serial passes leave for its one parallel loop:
// all the loop reads that changes from slot to slot, in one value its
// closure shares (one heap cell for the run, not one per captured variable).
type slotWork struct {
	slot    int
	view    []fleet.ShardState // the shards as the departures pass saw them
	stallMs float64            // server stall and slow ACK, charged to every session
	chunks  []fleetChunk       // the slot's build chunks, shard by shard
	ahead   []*simSession      // the sessions whose next prologue the loop's tail runs
}

// solve runs the shard's share of one slot once every row is built: sum its
// demand, solve against its budget share, then settle and observe every
// served session. It writes only the shard's scratch and its own sessions
// and touches the monitor and the breaker only at their entries, whose
// transition counters are atomic — so shards solve concurrently with each
// other and with the building of other shards' chunks.
func (sh *fleetShard) solve(env *simEnv, slot int, budget, stallMs float64) {
	for i := range sh.users {
		// Demand proxy: what the session could usefully take this slot — its
		// top ladder rate, clipped by its link.
		u := &sh.users[i]
		sh.demand += min(u.Rate[len(u.Rate)-1], u.Cap)
	}
	if len(sh.users) == 0 {
		return
	}
	sim := env.cfg
	sh.problem = core.SlotProblem{T: slot + 1, Budget: budget, Users: sh.users, Values: sh.values}
	var start time.Time
	if sim.Tracer.Enabled() {
		start = time.Now()
	}
	sh.allocation, sh.trace = step.Solve(sh.alloc, sim.Params, &sh.problem, sim.Recorder.Enabled(), sim.CounterfactualK)
	if sim.Tracer.Enabled() {
		sh.solveNs = time.Since(start).Nanoseconds()
	}

	// Shared-egress overload: the allocator respects the budget when it can,
	// but when even the mandatory minimum levels exceed it (the overload
	// regime capacity search hunts for), delivering R Mbps of slot content
	// over a B-Mbps egress takes R/B slot-times; the excess is charged to
	// every session.
	overloadMs := 0.0
	if sh.allocation.Rate > budget && budget > 0 {
		overloadMs = (sh.allocation.Rate/budget - 1) * env.SlotMs
	}
	for i := range sh.rows {
		// Graceful degradation: while the session's SLO burns, the breaker
		// caps its quality — shedding load (bytes) before shedding the user.
		r := &sh.rows[i]
		r.q, r.capped = r.s.clamp(sh.allocation.Levels[i])
		r.rate, r.delay, r.missed = r.s.settle(env, r.q, overloadMs, stallMs)
		r.s.observe(sim, !r.missed, r.quality())
	}
}

// record builds and records the decision flight-recorder entry for the
// shard's slot: the chosen allocation with its per-user objective
// decomposition, the trace's rejections and counterfactual alternatives, and
// (when a regret reference is configured) the DP optimum's view of the same
// problem. Every slice is freshly allocated because the recorder ring and the
// attributor alias them.
func (sh *fleetShard) record(cfg *SimConfig, slot int, ref core.Allocator) {
	p := &sh.problem
	rec := step.Record(cfg.AllocName, cfg.Params, slot, p, sh.allocation, sh.trace)
	rec.SessionIDs = make([]uint32, len(sh.rows))
	for i, r := range sh.rows {
		rec.SessionIDs[i] = r.s.spec.ID
	}
	if ref != nil {
		opt := ref.Allocate(cfg.Params, p)
		rec.HasRegret = true
		rec.OptimalValue = opt.Value
		// Sub-1e-9 differences are summation-order noise between the DP and
		// greedy engines evaluating the same allocation; call them a tie.
		if r := opt.Value - sh.allocation.Value; r > 1e-9 {
			rec.Regret = r
		}
		rec.UserRegret = make([]float64, len(p.Users))
		for i := range p.Users {
			rec.UserRegret[i] = core.Objective(cfg.Params, p.T, p.Users[i], opt.Levels[i]) - rec.UserValues[i]
		}
	}
	cfg.Recorder.Record(&rec)
}

// SimulateFleet replays the workload through N virtual shards behind the
// fleet decision core, in virtual time: scored placement at arrival,
// per-shard allocation against the rebalanced budget split, and — when the
// chaos profile kills or drains a shard — live migration of its sessions
// to the survivors, each paying a short forced-miss outage instead of being
// dropped. Same workload + config is bit-identical at any worker count.
//
// A slot has three parts. The control step is serial: coordinator and shard
// faults, pending replays, arrivals (placement only), departures. The
// departures pass also files the sessions that stay by shard in arrival
// order, gives each served one its row in its shard's problem, and lists
// the sessions already set up that live on to the next slot; each shard's
// sessions are cut into chunks of at most step.Grain. Then one fork-join,
// on up to Sim.Workers goroutines, over the chunks and then over that list.
// A chunk sets up, builds or blacks out each of its sessions — a session set
// up before the slot already had the slot's prologue (prediction, tile
// selection, rate ladder, coverage, capacity draw), so its build is the
// half that reads its state: chaos, the delay table, the objective row. A
// session the chunk set up has its next slot's prologue run there too.
// Whoever builds a shard's last chunk solves that shard, settles its served
// sessions and observes each in the SLO monitor and the breaker
// (fleetShard.solve), while the participants no solve holds take the list:
// the next slot's prologue of each session on it (simSession.prologue),
// which writes only the session's inputs and the bank of the next slot's
// parity, where this slot's build, solve and settle read the other. It is
// all per-session and per-shard state no other index touches, with
// order-free atomic counters. Then the tally, serial again and in
// shard-then-arrival order, does what is order-sensitive: the decision
// recorder, the spans, quality sums, degraded and outage counts, rebalancer
// demand, the router view's tallies, health series, evacuation. Nothing the
// loop reads is written during it and each result is consumed in a fixed
// order after it, so the worker count never reaches the report.
func SimulateFleet(w *Workload, cfg FleetSimConfig) (*FleetReport, error) {
	cfg = cfg.withDefaults()
	if len(w.Sessions) == 0 {
		return nil, fmt.Errorf("load: empty workload")
	}
	sim := &cfg.Sim
	if err := fleet.CheckProfile(sim.Chaos, cfg.Shards, cfg.Coordinators); err != nil {
		return nil, err
	}
	scorer, err := fleet.ScorerByName(cfg.Scorer)
	if err != nil {
		return nil, err
	}
	// The control plane — owner map, router view, budget split, evacuation
	// hysteresis, health series — is the state machine fleet.Live runs.
	ctl := fleet.NewController(fleet.ControllerConfig{
		Shards:           cfg.Shards,
		Zones:            cfg.Zones,
		GlobalBudgetMbps: sim.BudgetMbps,
		Scorer:           scorer,
		Recorder:         cfg.Recorder,
		Evac:             cfg.Evac,
		Health:           cfg.Health,
		Coord:            cfg.Coord,
	})
	horizon := w.Cfg.HorizonSlots
	env := newSimEnv(w, sim)
	lm := newLoadMetrics(sim.Metrics)
	arrivals := indexArrivals(w.Sessions, horizon)
	report := &FleetReport{
		RunReport: RunReport{
			Mode:           "fleet-sim",
			Algorithm:      sim.AllocName,
			HorizonSlots:   horizon,
			Spawned:        len(w.Sessions),
			PeakConcurrent: w.peakConcurrent(),
		},
		Scorer: scorer.Name(),
	}

	// One allocator instance per shard: some allocators keep state, a real
	// fleet runs one per server, and the shards solve concurrently. The
	// run-long slices and the owner map start at the workload's peak, so
	// they do not grow.
	peak := report.PeakConcurrent
	ctl.Reserve(peak)
	report.Outcomes = make([]sessionOutcome, 0, len(w.Sessions))
	shards := make([]fleetShard, cfg.Shards)
	for i := range shards {
		shards[i].alloc = sim.NewAllocator()
		shards[i].owned = make([]*simSession, 0, peak)
		shards[i].rows = make([]servedRow, 0, peak)
	}
	var (
		sessions sessionArena
		active   = make([]*simSession, 0, peak)
		work     = slotWork{
			chunks: make([]fleetChunk, 0, peak/step.Grain+cfg.Shards),
			ahead:  make([]*simSession, 0, peak),
		}
		levels = sim.Params.Levels
	)
	serverInj := chaos.NewServerInjector(sim.Chaos)
	shardFaults := sim.Chaos.ShardFaults() // the brown-outs among them are the data plane's
	report.SlotQuality = make([]float64, 0, horizon)

	var regretRef core.Allocator
	if sim.Recorder.Enabled() && sim.RegretRef {
		regretRef = core.DPOptimal{Resolution: sim.RegretResolution}
	}
	spans := step.VirtualSpans{Tracer: sim.Tracer, Epoch: sim.TraceEpoch, Algo: sim.AllocName, SlotMs: env.SlotMs}

	finish := func(s *simSession) {
		s.ensureInputs(env) // a session that departs the slot it was placed
		sim.SLO.Retire(s.spec.ID)
		sim.Breaker.Retire(s.spec.ID)
		ctl.Forget(s.spec.ID)
		out := s.outcome()
		report.Outcomes = append(report.Outcomes, out)
		report.Completed++
		lm.observeOutcome(out)
	}

	// moved is the virtual handoff: the session is on its new shard at once
	// and pays the migration outage.
	moved := func(slot int, s *simSession, to int) {
		s.shard = to
		s.outageUntil = slot + cfg.MigrationOutageSlots
		s.pendingFlip = false
	}
	// reroute hands one session of a failing shard to the best survivor.
	// Under a leaderless coordinator (the leader died between the export and
	// the flip) it is left pending instead: exported but not adopted, blacked
	// out until the survivors elect and the flip commits — degraded for the
	// election window, never dropped, never double-owned. A session no shard
	// can take rides the dead shard at zero quality.
	reroute := func(slot int, s *simSession) bool {
		to, pending := ctl.Reroute(fleet.SessionInfo{ID: s.spec.ID, Zone: s.zone}, s.shard, s.paging)
		if to >= 0 {
			moved(slot, s, to)
		} else if pending {
			s.pendingFlip = true
		}
		return to >= 0
	}

	degrade := make([]float64, cfg.Shards)
	shardQualSum := make([]float64, cfg.Shards)
	shardQualCnt := make([]int, cfg.Shards)
	var evacCands []fleet.EvacCandidate

	// The slot's one parallel loop, made once over what the serial passes
	// leave for it in work. Its first indices are the build chunks: a chunk
	// sets up, builds or blacks out its sessions, and the chunk that
	// completes its shard solves it. The rest are the next slot's prologue,
	// step.Grain sessions an index, over the sessions whose inputs no build
	// chunk of this slot touches, so the participants that claim them are
	// the ones no solve holds.
	fj := step.NewForkJoin(sim.Workers)
	defer fj.Close()
	slotChunk := func(c int) {
		slot, chunks := work.slot, work.chunks
		if c >= len(chunks) {
			lo := (c - len(chunks)) * step.Grain
			for _, s := range work.ahead[lo:min(lo+step.Grain, len(work.ahead))] {
				s.prologue(env, slot+1)
			}
			return
		}
		ch := chunks[c]
		sh := &shards[ch.shard]
		for _, s := range sh.owned[ch.lo:ch.hi] {
			// A session set up before the slot has had this slot's prologue,
			// and the departures pass put it on the ahead list if it lives
			// on; the chunk that sets a session up runs its next prologue.
			inline := !s.ready
			s.ensureInputs(env)
			if s.row < 0 {
				s.blackout(env, slot)
			} else {
				row := int(s.row)
				sh.users[row] = s.build(env, slot, degrade[ch.shard], sh.values[row*levels:(row+1)*levels])
			}
			if inline && s.livesAt(slot+1, horizon) {
				s.prologue(env, slot+1)
			}
		}
		if sh.pending.Add(-1) == 0 {
			sh.solve(env, slot, work.view[ch.shard].BudgetMbps, work.stallMs)
		}
	}

	for slot := 0; slot < horizon; slot++ {
		// Coordinator faults and the cluster tick come first: a leader
		// killed this slot is already dead when the shard faults below try
		// to flip ownership, and an election lands before any retry.
		events := ctl.Faults(sim.Chaos, slot)
		ctl.Tick(slot)

		// Kill and drain windows open (and drains close) before arrivals see
		// the shard states; a failing shard's sessions move in arrival order.
		for _, ev := range events {
			if !ctl.Apply(ev) {
				continue
			}
			if ev.Kind != fleet.ShardDrainEnded {
				for _, s := range active {
					if s.shard == ev.Shard && !s.pendingFlip {
						reroute(slot, s)
					}
				}
			}
			ctl.Resplit()
		}
		for i := range degrade {
			degrade[i] = 1
		}
		for _, f := range shardFaults {
			// A browned-out shard's sessions see their link capacity
			// multiplied by the fault factor while the window is open.
			if f.Kind == chaos.FaultShardDegrade && slot >= f.StartSlot &&
				(f.DurationSlots == 0 || slot < f.StartSlot+f.DurationSlots) {
				degrade[f.Shard] *= f.Factor
			}
		}

		// Pending flips commit the first slot a leader is back, in arrival
		// order, and each re-placed session starts its bounded outage.
		rerouted := false
		for _, s := range active {
			if s.pendingFlip && reroute(slot, s) {
				rerouted = true
			}
		}
		if rerouted {
			ctl.Resplit()
		}

		// Arrivals route through the scorer; one the cluster cannot own
		// (leaderless) or no shard can accept fails fast, like Live.Place.
		for _, spec := range arrivals.at(slot) {
			zone := int(spec.ID) % cfg.Zones
			to, err := ctl.Place(fleet.SessionInfo{ID: spec.ID, Zone: zone})
			if err != nil {
				report.Failed++
				report.PlacementsFailed++
				continue
			}
			// A session value from the arena — a departed session's, else a
			// fresh one — with only the spec for now: the slot's build loop
			// sets up the session's inputs (ensureInputs), off the serial
			// path.
			s := sessions.get()
			s.spec, s.fleetPlace = spec, fleetPlace{zone: zone, shard: to}
			active = append(active, s)
		}
		// Departures: the arena takes each session back for a later
		// arrival. The same pass buckets the sessions that stay by owning
		// shard, in arrival order: one on a dead shard is blacked out, and so
		// is one mid-handoff — migrating (the client is redialling) or
		// exported with its flip waiting on a coordinator election. Every
		// other session gets its row in its shard's problem. A session
		// already set up that lives on to the next slot goes on the ahead
		// list, for the tail of the slot's loop to run its next prologue.
		view := ctl.States()
		for i := range shards {
			sh := &shards[i]
			sh.owned, sh.rows, sh.demand = sh.owned[:0], sh.rows[:0], 0
		}
		next, ahead := active[:0], work.ahead[:0]
		for _, s := range active {
			if slot >= s.spec.DepartSlot {
				finish(s)
				sessions.put(s)
				continue
			}
			next = append(next, s)
			if s.ready && s.livesAt(slot+1, horizon) {
				ahead = append(ahead, s)
			}
			sh := &shards[s.shard]
			sh.owned = append(sh.owned, s)
			s.row = -1
			if view[s.shard].Alive && slot >= s.outageUntil && !s.pendingFlip {
				s.row = int32(len(sh.rows))
				sh.rows = append(sh.rows, servedRow{s: s})
			}
		}
		active, work.ahead = next, ahead
		// The tally after the loop re-counts the router view from the
		// sessions that are left.
		ctl.ResetTallies()
		if len(active) == 0 {
			report.SlotQuality = append(report.SlotQuality, 0)
			sim.Health.Sample(int64(slot))
			continue
		}

		serverInj.Advance(slot)
		work.slot, work.view = slot, view
		work.stallMs = float64(serverInj.StallFor()+serverInj.AckDelay()) / float64(time.Millisecond)

		// Cut each shard's sessions into chunks. That ends the slot's serial
		// control step: from here each shard's problem is its own.
		chunks := work.chunks[:0]
		for i := range shards {
			sh := &shards[i]
			n := len(sh.rows)
			sh.users = slices.Grow(sh.users[:0], n)[:n]
			sh.values = slices.Grow(sh.values[:0], n*levels)[:n*levels]
			sh.pending.Store(int32((len(sh.owned) + step.Grain - 1) / step.Grain))
			for lo := 0; lo < len(sh.owned); lo += step.Grain {
				chunks = append(chunks, fleetChunk{i, lo, min(lo+step.Grain, len(sh.owned))})
			}
		}
		work.chunks = chunks

		// The slot's one fork-join, at session grain across every shard, the
		// solves and the next slot's prologue riding on it: one wake-up per
		// slot, not one per phase.
		fj.Run(len(chunks)+(len(ahead)+step.Grain-1)/step.Grain, 1, slotChunk)

		// Tally, serially, in shard-then-arrival order: the decision recorder
		// and the tracer keep ordered state and the quality sums are
		// floating-point, so the order the shards happened to finish in must
		// not reach them. Every owned session is tallied into the router view
		// under its verdict, so a view costs O(shards), not a sweep of the
		// active set.
		qualitySum := 0.0
		for i := range shards {
			fs := &shards[i]
			shardQualSum[i], shardQualCnt[i] = 0, len(fs.owned)
			ctl.ObserveDemand(i, fs.demand)
			if sim.Recorder.Enabled() && len(fs.rows) > 0 {
				fs.record(sim, slot, regretRef)
			}
			spans.Slot, spans.SolveNs, spans.Users = uint32(slot), fs.solveNs, len(fs.rows)
			for _, s := range fs.owned {
				ctl.Tally(i, s.paging)
				if s.row < 0 {
					report.OutageSlots++
					continue
				}
				r := &fs.rows[s.row]
				if r.capped {
					report.DegradedSlots++
				}
				q := r.quality()
				qualitySum += q
				shardQualSum[i] += q
				if sim.Tracer.Enabled() {
					spans.Emit(s.spec.ID, r.q, r.rate, r.delay, r.missed)
				}
			}
		}
		slotQuality := qualitySum / float64(len(active))
		report.SlotQuality = append(report.SlotQuality, slotQuality)

		// Health plane: fold this slot's shard states into the store. The
		// evacuation loop below reads the page-frac window from here, so
		// sampling must precede it.
		ctl.SampleHealth(slot, shardQualSum, shardQualCnt, slotQuality)

		// SLO-pressure evacuation: a shard whose rolling page-frac window
		// crosses the enter threshold hands a cooldown-spaced batch of its
		// sessions — not the ones still mid-handoff — to the rest of the fleet.
		for shard := range shards {
			if !ctl.EvacDue(shard, slot) {
				continue
			}
			evacCands = evacCands[:0]
			for i, s := range active {
				if s.shard == shard && slot >= s.outageUntil {
					evacCands = append(evacCands, fleet.EvacCandidate{ID: s.spec.ID, Zone: s.zone, Paging: s.paging, Ref: i})
				}
			}
			victims := ctl.EvacBatch(evacCands, slot)
			for k, to := range ctl.Evacuate(shard, slot, victims) {
				moved(slot, active[victims[k].Ref], to)
			}
		}

		// Periodic rebalance from the demand EMAs.
		ctl.Rebalance(slot)
		// Registry/SLO sampling (Sim.Health) rides the same virtual clock
		// as the fleet series above.
		sim.Health.Sample(int64(slot))
	}
	for _, s := range active {
		finish(s)
	}
	sortOutcomes(report.Outcomes)
	report.setControl(ctl.Outcome())
	return report, nil
}

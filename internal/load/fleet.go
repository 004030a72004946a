package load

import (
	"fmt"
	"slices"
	"strings"
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
	// Sim.Chaos may carry shard_kill/shard_drain faults — they drive the
	// fleet layer; its session-scoped faults apply per session as in
	// Simulate.
	Sim SimConfig
	// Shards is the virtual shard count (default 3).
	Shards int
	// Zones is the locality-zone count; shard i sits in zone i%Zones and
	// session n in zone n%Zones (default Shards).
	Zones int
	// Scorer names the placement policy (fleet.ScorerByName; default
	// least-loaded).
	Scorer string
	// Rebalance tunes the periodic budget re-split.
	Rebalance fleet.RebalanceConfig
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
	// (lease length, snapshot cadence). Coordinators overrides
	// Coord.Replicas.
	Coord coord.Config
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
	if c.Coordinators <= 0 {
		c.Coordinators = 1
	}
	c.Coord.Replicas = c.Coordinators
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

// fleetSession wraps a simSession with its fleet coordinates.
type fleetSession struct {
	simSession
	zone        int
	shard       int
	outageUntil int // slot before which the session is mid-handoff
	// pendingFlip marks a session whose ownership flip could not commit —
	// the coordinator was leaderless when its shard failed. The session is
	// blacked out (exported but not adopted) until the survivors elect and
	// the flip commits through the log.
	pendingFlip bool
	// paging mirrors the session's SLO state as of its last observation (the
	// state only changes there), so the router view and the evacuation
	// ordering read a field instead of locking the monitor.
	paging bool

	// What the shard's step charged the session this slot, read by the
	// serial tally after the join: whether it was blacked out, else the
	// quality displayed (0 for a miss) and whether the breaker's cap bit.
	slotOutage  bool
	slotQuality float64
	slotCapped  bool
}

// observe is simSession.observe, keeping the verdict for the router view.
func (s *fleetSession) observe(cfg *SimConfig, displayed bool, quality float64) {
	s.paging = s.simSession.observe(cfg, displayed, quality) == obs.SLOStatePage
}

// blackout charges the session's slot as a forced miss, like a deadline
// miss — degraded, not dropped: it is mid-handoff, stranded on a dead shard,
// or exported with its flip waiting on a coordinator election. The head
// keeps moving, so the predictor still sees the pose.
func (s *fleetSession) blackout(env *simEnv, slot int) {
	s.pred.Observe(s.trace[slot-s.spec.ArriveSlot])
	s.missed++
	s.ForcedMiss(s.acc, env.deadlineMs)
	s.observe(env.cfg, false, 0)
}

// ensureInputs regenerates the session's inputs (traces, predictor, QoE
// accumulator, chaos injector) if its placement deferred them. Placement
// only needs the spec; the regeneration is the expensive part of an arrival
// and shares nothing, so it runs in the placed shard's step.
func (s *fleetSession) ensureInputs(env *simEnv) {
	if s.pred == nil {
		s.simSession = env.newSession(s.spec)
	}
}

// blackedOut reports whether the session is mid-handoff this slot: migrating
// (the client is redialling) or exported with its flip waiting on a
// coordinator election.
func (s *fleetSession) blackedOut(slot int) bool {
	return slot < s.outageUntil || s.pendingFlip
}

// fleetShard is one virtual shard's slot scratch. Once the budget is split
// the shards' slot problems share nothing, so each shard steps on its own
// allocator and its own buffers while the others do the same.
type fleetShard struct {
	alloc   core.Allocator
	owned   []*fleetSession // the sessions placed on the shard, arrival order
	serving []*fleetSession // owned minus the blacked out: the problem's rows
	users   []core.UserInput
	values  []float64 // the shard's objective table, one slab (see Simulate)

	// One slot's results, valid until the shard's next step.
	demand     float64
	problem    core.SlotProblem
	allocation core.Allocation
	trace      *core.SlotTrace
}

// step runs the shard's share of one slot: set up the sessions placed on it
// this slot, build its slot problem, solve it against its budget share,
// settle every served session, charge every blacked-out one (all of them on a
// dead shard) and observe each in the SLO monitor and the breaker. It writes
// only the shard's scratch and its own sessions, reads the env and the
// config, and touches the monitor and the breaker only at its own sessions'
// entries, whose transition counters are atomic — so shards step
// concurrently. Everything whose order the report depends on is left to the
// serial tally after the join.
func (sh *fleetShard) step(env *simEnv, slot int, dead bool, budget, capFactor, stallMs float64) {
	for _, s := range sh.owned {
		s.ensureInputs(env)
	}
	sh.users, sh.values, sh.serving = sh.users[:0], sh.values[:0], sh.serving[:0]
	sh.demand = 0
	sim := env.cfg
	levels := sim.Params.Levels
	for _, s := range sh.owned {
		if s.slotOutage = dead || s.blackedOut(slot); s.slotOutage {
			s.blackout(env, slot)
			continue
		}
		// Growing the slab may move it; rows are only aliased once the
		// shard's problem is complete.
		sh.values = slices.Grow(sh.values, levels)[:len(sh.values)+levels]
		u := s.build(env, slot, capFactor, sh.values[len(sh.values)-levels:])
		// Demand proxy: what the session could usefully take this slot — its
		// top ladder rate, clipped by its link.
		sh.demand += min(u.Rate[len(u.Rate)-1], u.Cap)
		sh.users = append(sh.users, u)
		sh.serving = append(sh.serving, s)
	}
	if len(sh.users) == 0 {
		return
	}
	sh.problem = core.SlotProblem{T: slot + 1, Budget: budget, Users: sh.users, Values: sh.values}
	sh.allocation, sh.trace = step.Solve(sh.alloc, sim.Params, &sh.problem, sim.Recorder.Enabled(), sim.CounterfactualK)

	overloadMs := 0.0
	if sh.allocation.Rate > budget && budget > 0 {
		overloadMs = (sh.allocation.Rate/budget - 1) * env.SlotMs
	}
	for i, s := range sh.serving {
		var q int
		q, s.slotCapped = s.clamp(sh.allocation.Levels[i])
		_, _, missed := s.settle(env, q, overloadMs, stallMs)
		s.slotQuality = float64(q)
		if missed {
			s.slotQuality = 0
		}
		s.observe(sim, !missed, s.slotQuality)
	}
}

// SimulateFleet replays the workload through N virtual shards behind the
// fleet decision core, in virtual time: scored placement at arrival,
// per-shard allocation against the rebalanced budget split, and — when the
// chaos profile kills or drains a shard — live migration of its sessions
// to the survivors, each paying a short forced-miss outage instead of being
// dropped. Same workload + config is bit-identical, like Simulate.
//
// A slot has three parts. The control step is serial: coordinator and shard
// faults, pending replays, arrivals (placement only), departures, bucketing
// by shard. Then one fork-join steps every shard on up to Sim.Workers
// goroutines (fleetShard.step: arrival set-up, build, solve, settle, the
// blackout charges, and each session's SLO monitor and breaker observation —
// per-session state no other shard touches, with order-free atomic
// counters). Then the tally, serial again and in shard-then-arrival order,
// does what is order-sensitive: the decision recorder, quality sums,
// degraded and outage counts, rebalancer demand, the router view's tallies,
// health series, evacuation. Nothing a shard's step reads is written during
// the fork-join and each result is consumed in a fixed order after it, so
// the worker count never reaches the report.
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
		Rebalance:        cfg.Rebalance,
		Evac:             cfg.Evac,
		Health:           cfg.Health,
		Coord:            cfg.Coord,
	})
	horizon := w.Cfg.HorizonSlots
	env := newSimEnv(w, sim)
	lm := newLoadMetrics(sim.Metrics)

	// One allocator instance per shard: some allocators keep state, a real
	// fleet runs one per server, and the shards solve concurrently.
	shards := make([]fleetShard, cfg.Shards)
	for i := range shards {
		shards[i].alloc = sim.NewAllocator()
	}

	byArrive := make(map[int][]SessionSpec)
	for _, s := range w.Sessions {
		byArrive[s.ArriveSlot] = append(byArrive[s.ArriveSlot], s)
	}

	report := &FleetReport{
		RunReport: RunReport{
			Mode:           "fleet-sim",
			Algorithm:      sim.AllocName,
			HorizonSlots:   horizon,
			Spawned:        len(w.Sessions),
			PeakConcurrent: w.PeakConcurrent(),
		},
		Scorer: scorer.Name(),
	}

	var active []*fleetSession
	serverInj := chaos.NewServerInjector(sim.Chaos)
	shardFaults := sim.Chaos.ShardFaults() // the brown-outs among them are the data plane's
	report.SlotQuality = make([]float64, 0, horizon)

	var regretRef core.Allocator
	if sim.Recorder.Enabled() && sim.RegretRef {
		regretRef = core.DPOptimal{Resolution: sim.RegretResolution}
	}

	finish := func(s *fleetSession) {
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
	moved := func(slot int, s *fleetSession, to int) {
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
	reroute := func(slot int, s *fleetSession) bool {
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
		for _, spec := range byArrive[slot] {
			zone := int(spec.ID) % cfg.Zones
			to, err := ctl.Place(fleet.SessionInfo{ID: spec.ID, Zone: zone})
			if err != nil {
				report.Failed++
				report.PlacementsFailed++
				continue
			}
			// Only the spec for now: the placed shard's step regenerates the
			// session's inputs (ensureInputs), off the serial path.
			active = append(active, &fleetSession{simSession: simSession{spec: spec}, zone: zone, shard: to})
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
		// The tally after the step re-counts the router view from the sessions
		// that are left.
		ctl.ResetTallies()
		if len(active) == 0 {
			report.SlotQuality = append(report.SlotQuality, 0)
			sim.Health.Sample(int64(slot))
			continue
		}

		serverInj.Advance(slot)
		stallMs := float64(serverInj.StallFor()+serverInj.AckDelay()) / float64(time.Millisecond)

		// Bucket the active set by owning shard, in arrival order. That ends
		// the slot's serial control step: from here each shard's problem is
		// its own.
		for i := range shards {
			shards[i].owned = shards[i].owned[:0]
		}
		for _, s := range active {
			shards[s.shard].owned = append(shards[s.shard].owned, s)
		}

		// The slot's one fork-join: every shard sets up its arrivals, builds,
		// solves against its own budget share, settles or blacks out each of
		// its sessions and observes it, on up to Workers goroutines. One, not
		// one per phase — a slot is about a millisecond of work and every
		// fork-join pays a goroutine wake-up.
		view := ctl.States()
		forEachShard(len(shards), sim.Workers, func(i int) {
			shards[i].step(env, slot, !view[i].Alive, view[i].BudgetMbps, degrade[i], stallMs)
		})

		// Tally, serially, in shard-then-arrival order: the decision recorder
		// keeps ordered state and the quality sums are floating-point, so the
		// order the shards happened to finish in must not reach them. Every
		// owned session is tallied into the router view under its verdict, so
		// a view costs O(shards), not a sweep of the active set.
		qualitySum := 0.0
		counted := 0
		for i := range shards {
			fs := &shards[i]
			shardQualSum[i], shardQualCnt[i] = 0, 0
			ctl.ObserveDemand(i, fs.demand)
			if sim.Recorder.Enabled() && len(fs.serving) > 0 {
				ids := make([]uint32, len(fs.serving))
				for j, s := range fs.serving {
					ids[j] = s.spec.ID
				}
				recordSimSlot(sim, slot, &fs.problem, fs.allocation, fs.trace, ids, regretRef)
			}
			for _, s := range fs.owned {
				ctl.Tally(i, s.paging)
				counted++
				shardQualCnt[i]++
				if s.slotOutage {
					report.OutageSlots++
					continue
				}
				if s.slotCapped {
					report.DegradedSlots++
				}
				qualitySum += s.slotQuality
				shardQualSum[i] += s.slotQuality
			}
		}
		slotQuality := 0.0
		if counted > 0 {
			slotQuality = qualitySum / float64(counted)
		}
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

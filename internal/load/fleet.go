package load

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fleet/coord"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
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
	// owner map (default 1 — a single replica, the zero-cost path,
	// byte-identical to the pre-replication engine; 2f+1 replicas tolerate
	// f crashes, with ownership mutations stalling at most Coord.LeaseSlots
	// per leader loss). -1 disables the cluster entirely — the legacy
	// direct-ownership path, kept as the bench control.
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
	if c.Coordinators == 0 {
		c.Coordinators = 1
	}
	return c
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

// FleetReport aggregates one fleet-sim run: the fleet-wide RunReport plus
// the router/rebalancer accounting the single-server report has no place
// for.
type FleetReport struct {
	RunReport
	Scorer     string         `json:"scorer"`
	Shards     []ShardOutcome `json:"shards"`
	Placements int            `json:"placements"`
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
	// Coord summarizes the replicated coordinator's run; nil when the
	// cluster was disabled (Coordinators -1).
	Coord *CoordOutcome `json:"coord,omitempty"`
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
	// LeaderlessSlots counts slots during which the cluster could not
	// accept ownership mutations (dead leader's lease draining, or quorum
	// lost) — the control-plane blackout the election timeout bounds.
	LeaderlessSlots int `json:"leaderless_slots"`
	// Converged reports whether every alive replica finished with an
	// identical applied owner map — the single-owner invariant.
	Converged bool `json:"converged"`
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
	// the flip commits through the log; pendingReason carries the
	// placement reason to record at commit time.
	pendingFlip   bool
	pendingReason string
}

// SimulateFleet replays the workload through N virtual shards behind the
// fleet decision core, in virtual time: scored placement at arrival,
// per-shard allocation against the rebalanced budget split, and — when the
// chaos profile kills or drains a shard — live migration of its sessions
// to the survivors, each paying a short forced-miss outage instead of being
// dropped. Same workload + config is bit-identical, like Simulate.
func SimulateFleet(w *Workload, cfg FleetSimConfig) (*FleetReport, error) {
	cfg = cfg.withDefaults()
	if len(w.Sessions) == 0 {
		return nil, fmt.Errorf("load: empty workload")
	}
	sim := &cfg.Sim
	if m := sim.Chaos.MaxShard(); m >= cfg.Shards {
		return nil, fmt.Errorf("load: chaos profile targets shard %d but the fleet has %d shards", m, cfg.Shards)
	}

	// Replicated coordinator: every ownership mutation (place, flip,
	// forget, evac batch, budget split) commits through its log. A single
	// replica is the zero-cost default — proposals apply directly, no
	// allocation, bit-identical to the pre-replication engine. -1 disables
	// the cluster entirely (the bench control).
	var cluster *coord.Cluster
	if cfg.Coordinators >= 1 {
		ccfg := cfg.Coord
		ccfg.Replicas = cfg.Coordinators
		cluster = coord.New(ccfg)
	}
	coordFaults := sim.Chaos.CoordFaults()
	if m := sim.Chaos.MaxReplica(); m >= 0 {
		if cluster == nil {
			return nil, fmt.Errorf("load: chaos profile carries coordinator faults but the cluster is disabled (Coordinators %d)", cfg.Coordinators)
		}
		if m >= cfg.Coordinators {
			return nil, fmt.Errorf("load: chaos profile targets coordinator replica %d but the cluster has %d", m, cfg.Coordinators)
		}
	}
	coordUp := func() bool { return cluster == nil || cluster.Available() }
	horizon := w.Cfg.HorizonSlots
	env := newSimEnv(w, sim)
	slotMs, deadlineMs := env.slotMs, env.deadlineMs
	lm := newLoadMetrics(sim.Metrics)

	// One allocator instance per shard: some allocators keep state, and a
	// real fleet runs one per server.
	allocs := make([]core.Allocator, cfg.Shards)
	for i := range allocs {
		allocs[i] = sim.NewAllocator()
	}
	scorer, err := fleet.ScorerByName(cfg.Scorer)
	if err != nil {
		return nil, err
	}
	router := fleet.NewRouter(scorer, cfg.Recorder)
	rb := fleet.NewRebalancer(cfg.Rebalance, cfg.Shards)

	// Health plane: per-shard and fleet-aggregate series on the slot clock.
	// The evacuation loop reads its pressure signal from the page-frac
	// series, so it gets a private store when the caller did not ask for one.
	evac := fleet.NewEvacuator(cfg.Evac, cfg.Shards)
	health := cfg.Health
	if health == nil && evac != nil {
		health = tsdb.New(tsdb.Options{})
	}
	type shardHealth struct {
		sessions, budget, demand, pageFrac, quality *tsdb.Series
	}
	var sh []shardHealth
	var fleetQuality, fleetSessions, fleetEvacTotal *tsdb.Series
	if health != nil {
		sh = make([]shardHealth, cfg.Shards)
		for i := range sh {
			sh[i] = shardHealth{
				sessions: health.ShardSeries("fleet_shard_sessions", tsdb.Gauge, i),
				budget:   health.ShardSeries("fleet_shard_budget_mbps", tsdb.Gauge, i),
				demand:   health.ShardSeries("fleet_shard_demand_mbps", tsdb.Gauge, i),
				pageFrac: health.ShardSeries("fleet_shard_page_frac", tsdb.Gauge, i),
				quality:  health.ShardSeries("fleet_shard_slot_quality", tsdb.Gauge, i),
			}
		}
		fleetQuality = health.Series("fleet_slot_quality", tsdb.Gauge)
		fleetSessions = health.Series("fleet_active_sessions", tsdb.Gauge)
		fleetEvacTotal = health.Series("fleet_evacuations_total", tsdb.Counter)
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
		Scorer: router.ScorerName(),
		Shards: make([]ShardOutcome, cfg.Shards),
	}
	for i := range report.Shards {
		report.Shards[i] = ShardOutcome{
			Shard: i, Zone: i % cfg.Zones, KilledSlot: -1, DrainSlot: -1,
			FinalBudgetMbps: sim.BudgetMbps / float64(cfg.Shards),
		}
	}

	// Mutable shard state.
	dead := make([]bool, cfg.Shards)
	draining := make([]bool, cfg.Shards)
	budget := make([]float64, cfg.Shards)
	demand := make([]float64, cfg.Shards)
	for i := range budget {
		budget[i] = sim.BudgetMbps / float64(cfg.Shards)
	}

	var active []*fleetSession
	serverInj := chaos.NewServerInjector(sim.Chaos)
	shardFaults := sim.Chaos.ShardFaults()
	report.SlotQuality = make([]float64, 0, horizon)

	var regretRef core.Allocator
	if sim.Recorder.Enabled() && sim.RegretRef {
		regretRef = core.DPOptimal{Resolution: sim.RegretResolution}
	}

	// pendingForgets queues departures that arrived while the coordinator
	// was leaderless; they replay once a leader is back. A stale binding is
	// never load-bearing, so deferral is safe.
	var pendingForgets []uint32
	coordLeaderless := 0

	finish := func(s *fleetSession) {
		sim.SLO.Retire(s.spec.ID)
		sim.Breaker.Retire(s.spec.ID)
		evac.Forget(s.spec.ID)
		if cluster != nil {
			if err := cluster.Propose(coord.Op{Kind: coord.OpForget, Session: s.spec.ID}); err != nil {
				pendingForgets = append(pendingForgets, s.spec.ID)
			}
		}
		out := s.outcome()
		report.Outcomes = append(report.Outcomes, out)
		report.Completed++
		lm.observeOutcome(out)
	}

	// shardStates builds the router's view: budgets and demand from the
	// fleet layer, sessions and page fractions from the active set, all in
	// shard-index order.
	shardStates := func() []fleet.ShardState {
		counts := make([]int, cfg.Shards)
		paging := make([]int, cfg.Shards)
		for _, s := range active {
			counts[s.shard]++
			if sim.SLO.Enabled() && sim.SLO.State(s.spec.ID) == obs.SLOStatePage {
				paging[s.shard]++
			}
		}
		out := make([]fleet.ShardState, cfg.Shards)
		for i := range out {
			out[i] = fleet.ShardState{
				ID: i, Zone: i % cfg.Zones,
				Alive: !dead[i], Draining: draining[i],
				Sessions: counts[i], BudgetMbps: budget[i], DemandMbps: demand[i],
			}
			if counts[i] > 0 {
				out[i].PageFrac = float64(paging[i]) / float64(counts[i])
			}
		}
		return out
	}

	// applyShares re-splits the global budget over accepting shards. The
	// split commits through the coordinator log first: a leaderless cluster
	// postpones the re-split (budgets ride unchanged until the next due
	// tick), so every replica replays the same share history.
	applyShares := func() {
		accepting := make([]bool, cfg.Shards)
		for i := range accepting {
			accepting[i] = !dead[i] && !draining[i]
		}
		shares := rb.Shares(sim.BudgetMbps, accepting)
		if cluster != nil {
			if err := cluster.Propose(coord.Op{Kind: coord.OpBudgetSplit, Shares: shares}); err != nil {
				return
			}
		}
		for i, share := range shares {
			if accepting[i] {
				budget[i] = share
			} else {
				budget[i] = 0
			}
		}
	}

	// commitFlip routes one exported session at commit time and flips its
	// ownership through the coordinator log; the session then pays the
	// migration outage. Returns false when there is nowhere to go or the
	// flip could not commit.
	commitFlip := func(slot int, s *fleetSession, reason string) bool {
		from := s.shard
		sess := fleet.SessionInfo{ID: s.spec.ID, Zone: s.zone}
		to := router.Place(slot, sess, shardStates(), reason, from)
		if to < 0 {
			return false // nowhere to go: the session rides the dead shard (0 quality)
		}
		if cluster != nil {
			if err := cluster.Propose(coord.Op{Kind: coord.OpFlip, Session: s.spec.ID, Shard: to, From: from}); err != nil {
				return false
			}
		}
		s.shard = to
		s.outageUntil = slot + cfg.MigrationOutageSlots
		s.pendingFlip = false
		report.Shards[from].MigratedOut++
		report.Shards[to].MigratedIn++
		report.Migrations++
		return true
	}

	// migrateShard hands every session of a failing shard to the best
	// survivor, in arrival order; each migrated session pays the outage.
	// When the coordinator is leaderless (the leader died between the
	// export and the flip) the session is queued instead: exported but not
	// adopted, blacked out until the survivors elect and the flip commits —
	// degraded for the election window, never dropped, never double-owned.
	migrateShard := func(slot, from int, reason string) {
		for _, s := range active {
			if s.shard != from || s.pendingFlip {
				continue
			}
			if !coordUp() {
				s.pendingFlip = true
				s.pendingReason = reason
				continue
			}
			commitFlip(slot, s, reason)
		}
	}

	users := make([]core.UserInput, 0, 64)
	levels := sim.Params.Levels
	var values []float64 // the shard's objective table, one slab (see Simulate)
	// byShard buckets the active set by owning shard once per slot, in
	// arrival order; serving holds the sessions of the shard being solved.
	byShard := make([][]*fleetSession, cfg.Shards)
	var serving []*fleetSession
	degrade := make([]float64, cfg.Shards)
	shardQualSum := make([]float64, cfg.Shards)
	shardQualCnt := make([]int, cfg.Shards)
	var evacCands []*fleetSession

	for slot := 0; slot < horizon; slot++ {
		// Coordinator faults and the cluster tick come first: a leader
		// killed this slot is already dead when the shard faults below try
		// to flip ownership, and an election lands before any retry. The
		// tick also drains leases and heals laggards.
		if cluster != nil {
			for _, f := range coordFaults {
				switch f.Kind {
				case chaos.FaultCoordKill:
					if f.StartSlot == slot {
						cluster.Kill(f.Replica)
					}
					if f.DurationSlots > 0 && f.StartSlot+f.DurationSlots == slot {
						cluster.Restart(f.Replica)
					}
				case chaos.FaultCoordPartition:
					if f.StartSlot == slot {
						cluster.Partition(f.Replica, int64(slot+f.DurationSlots))
					}
				}
			}
			cluster.Tick(int64(slot))
			if !cluster.Available() {
				coordLeaderless++
			}
		}

		// Shard faults: kill and drain windows open (and drains close) on
		// slot boundaries, before arrivals see the shard states. Degrade
		// windows recompute each slot — a browned-out shard's sessions see
		// their link capacity multiplied by the fault factor.
		for i := range degrade {
			degrade[i] = 1
		}
		for _, f := range shardFaults {
			if f.Shard >= cfg.Shards {
				continue
			}
			switch f.Kind {
			case chaos.FaultShardDegrade:
				if slot >= f.StartSlot && (f.DurationSlots == 0 || slot < f.StartSlot+f.DurationSlots) {
					degrade[f.Shard] *= f.Factor
				}
			case chaos.FaultShardKill:
				if f.StartSlot == slot && !dead[f.Shard] {
					dead[f.Shard] = true
					report.Shards[f.Shard].KilledSlot = slot
					migrateShard(slot, f.Shard, obs.PlaceShardKill)
					applyShares()
				}
			case chaos.FaultShardDrain:
				if f.StartSlot == slot && !draining[f.Shard] && !dead[f.Shard] {
					draining[f.Shard] = true
					report.Shards[f.Shard].DrainSlot = slot
					migrateShard(slot, f.Shard, obs.PlaceShardDrain)
					applyShares()
				}
				if f.DurationSlots > 0 && f.StartSlot+f.DurationSlots == slot && draining[f.Shard] {
					draining[f.Shard] = false // drained shard rejoins empty
					applyShares()
				}
			}
		}

		// Pending replays: departures and flips rejected during a
		// leaderless window commit now, in arrival order — ownership
		// converges the first slot a leader is back, and each re-placed
		// session starts its bounded migration outage.
		if cluster != nil && cluster.Available() {
			for len(pendingForgets) > 0 {
				if err := cluster.Propose(coord.Op{Kind: coord.OpForget, Session: pendingForgets[0]}); err != nil {
					break
				}
				pendingForgets = pendingForgets[1:]
			}
			rerouted := false
			for _, s := range active {
				if !s.pendingFlip {
					continue
				}
				if commitFlip(slot, s, s.pendingReason) {
					rerouted = true
				}
			}
			if rerouted {
				applyShares()
			}
		}

		// Arrivals route through the scorer.
		for _, spec := range byArrive[slot] {
			zone := int(spec.ID) % cfg.Zones
			if !coordUp() {
				// Leaderless cluster: the arrival cannot be owned, so it
				// fails fast like Live.Place — the caller-visible contract.
				report.Failed++
				report.PlacementsFailed++
				continue
			}
			to := router.Place(slot, fleet.SessionInfo{ID: spec.ID, Zone: zone},
				shardStates(), obs.PlaceArrival, -1)
			if to < 0 {
				report.Failed++
				report.PlacementsFailed++
				continue
			}
			if cluster != nil {
				if err := cluster.Propose(coord.Op{Kind: coord.OpPlace, Session: spec.ID, Shard: to}); err != nil {
					report.Failed++
					report.PlacementsFailed++
					continue
				}
			}
			report.Placements++
			report.Shards[to].Placed++
			active = append(active, &fleetSession{simSession: env.newSession(spec), zone: zone, shard: to})
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
			sim.Health.Sample(int64(slot))
			continue
		}

		serverInj.Advance(slot)
		stallMs := float64(serverInj.StallFor()+serverInj.AckDelay()) / float64(time.Millisecond)

		// Advance every session's pose/chaos state once, then solve each
		// shard's slot problem over its own sessions against its own
		// budget share.
		qualitySum := 0.0
		counted := 0
		for i := range report.Shards {
			shardQualSum[i] = 0
			shardQualCnt[i] = 0
		}
		for i := range byShard {
			byShard[i] = byShard[i][:0]
		}
		for _, s := range active {
			byShard[s.shard] = append(byShard[s.shard], s)
		}
		for i, owned := range byShard {
			if len(owned) > report.Shards[i].PeakSessions {
				report.Shards[i].PeakSessions = len(owned)
			}
		}
		for shard := 0; shard < cfg.Shards; shard++ {
			if dead[shard] {
				demand[shard] = 0
				rb.Observe(shard, 0)
				continue // stranded sessions black out in the outage pass
			}
			users, values, serving = users[:0], values[:0], serving[:0]
			shardDemand := 0.0
			for _, s := range byShard[shard] {
				if slot < s.outageUntil || s.pendingFlip {
					continue
				}
				// Growing the slab may move it; rows are only aliased once
				// the shard's problem is complete.
				values = slices.Grow(values, levels)[:len(values)+levels]
				u := s.build(env, slot, degrade[shard], values[len(values)-levels:])
				// Demand proxy: what the session could usefully take this
				// slot — its top ladder rate, clipped by its link.
				top := u.Rate[len(u.Rate)-1]
				if u.Cap < top {
					top = u.Cap
				}
				shardDemand += top
				users = append(users, u)
				serving = append(serving, s)
			}
			demand[shard] = shardDemand
			rb.Observe(shard, shardDemand)
			if len(users) == 0 {
				continue
			}

			problem := &core.SlotProblem{T: slot + 1, Budget: budget[shard], Users: users, Values: values}
			allocation, slotTr := solveSlot(sim, allocs[shard], problem)
			if sim.Recorder.Enabled() {
				ids := make([]uint32, len(serving))
				for i, s := range serving {
					ids[i] = s.spec.ID
				}
				recordSimSlot(sim, slot, problem, allocation, slotTr, ids, regretRef)
			}

			overloadMs := 0.0
			if allocation.Rate > budget[shard] && budget[shard] > 0 {
				overloadMs = (allocation.Rate/budget[shard] - 1) * slotMs
			}
			for i, s := range serving {
				q := allocation.Levels[i]
				if bcap := sim.Breaker.Cap(s.spec.ID); bcap > 0 && q > bcap {
					q = bcap
					report.DegradedSlots++
				}
				_, _, missed := s.settle(env, q, overloadMs, stallMs)

				quality := float64(q)
				if missed {
					quality = 0
				}
				qualitySum += quality
				counted++
				shardQualSum[shard] += quality
				shardQualCnt[shard]++
				sim.SLO.ObserveSlot(s.spec.ID, !missed, quality)
				sim.Breaker.Observe(s.spec.ID, sim.SLO.State(s.spec.ID))
			}
		}

		// Sessions mid-handoff (or stranded on a dead shard, or exported
		// with their flip waiting on a coordinator election) are blacked
		// out this slot: the frame is a forced miss, charged like a
		// deadline miss — degraded, not dropped.
		for _, s := range active {
			inOutage := slot < s.outageUntil || s.pendingFlip
			stranded := dead[s.shard]
			if !inOutage && !stranded {
				continue
			}
			local := slot - s.spec.ArriveSlot
			s.pred.Observe(s.trace[local]) // the head keeps moving
			s.served++
			s.missed++
			s.t++
			s.acc.Observe(1, false, deadlineMs)
			s.acc.ObserveFrame(false)
			counted++
			shardQualCnt[s.shard]++
			report.OutageSlots++
			sim.SLO.ObserveSlot(s.spec.ID, false, 0)
			sim.Breaker.Observe(s.spec.ID, sim.SLO.State(s.spec.ID))
		}
		if counted > 0 {
			report.SlotQuality = append(report.SlotQuality, qualitySum/float64(counted))
		} else {
			report.SlotQuality = append(report.SlotQuality, 0)
		}

		// Health plane: fold this slot's shard states into the store. The
		// evacuation loop below reads the page-frac window from here, so
		// sampling must precede it.
		if health != nil {
			states := shardStates()
			for i, st := range states {
				sh[i].sessions.Observe(int64(slot), float64(st.Sessions))
				sh[i].budget.Observe(int64(slot), st.BudgetMbps)
				sh[i].demand.Observe(int64(slot), st.DemandMbps)
				sh[i].pageFrac.Observe(int64(slot), st.PageFrac)
				q := 0.0
				if shardQualCnt[i] > 0 {
					q = shardQualSum[i] / float64(shardQualCnt[i])
				}
				sh[i].quality.Observe(int64(slot), q)
			}
			fleetSessions.Observe(int64(slot), float64(len(active)))
			fleetQuality.Observe(int64(slot), report.SlotQuality[len(report.SlotQuality)-1])
			fleetEvacTotal.Observe(int64(slot), float64(report.Evacuations))
		}

		// SLO-pressure evacuation: a shard whose ROLLING page-frac window
		// (never the instantaneous sample) crosses the enter threshold
		// hands a cooldown-spaced batch to the rest of the fleet. Paging
		// sessions move first — they are the ones a fresh shard can still
		// save — and no session moves twice inside one cooldown window.
		if evac != nil {
			for shard := 0; shard < cfg.Shards; shard++ {
				if dead[shard] || draining[shard] {
					continue
				}
				if !coordUp() {
					// No leader, no batch: the controller state is left
					// untouched so the same batch fires once one is back.
					continue
				}
				w := sh[shard].pageFrac.Stats(evac.Config().WindowSlots)
				pressure := 0.0
				if w.Count > 0 {
					pressure = w.Mean()
				}
				if !evac.Update(shard, int64(slot), pressure, w.Count) {
					continue
				}
				evacCands = evacCands[:0]
				for _, s := range active {
					if s.shard != shard || slot < s.outageUntil {
						continue
					}
					if !evac.AllowSession(s.spec.ID, int64(slot)) {
						continue
					}
					evacCands = append(evacCands, s)
				}
				sort.SliceStable(evacCands, func(i, j int) bool {
					pi := sim.SLO.State(evacCands[i].spec.ID) == obs.SLOStatePage
					pj := sim.SLO.State(evacCands[j].spec.ID) == obs.SLOStatePage
					return pi && !pj
				})
				moved := 0
				var batchTo []int       // distinct targets, first-seen order
				var batchIDs [][]uint32 // sessions per target, move order
				for _, s := range evacCands {
					if moved >= evac.Config().BatchSessions {
						break
					}
					to := router.Place(slot, fleet.SessionInfo{ID: s.spec.ID, Zone: s.zone},
						shardStates(), obs.PlaceSLOPressure, shard)
					if to < 0 {
						break
					}
					s.shard = to
					s.outageUntil = slot + cfg.MigrationOutageSlots
					evac.NoteMigration(s.spec.ID, int64(slot))
					report.Shards[shard].MigratedOut++
					report.Shards[to].MigratedIn++
					report.Migrations++
					report.Evacuations++
					moved++
					if cluster != nil {
						found := false
						for i, t := range batchTo {
							if t == to {
								batchIDs[i] = append(batchIDs[i], s.spec.ID)
								found = true
								break
							}
						}
						if !found {
							batchTo = append(batchTo, to)
							batchIDs = append(batchIDs, []uint32{s.spec.ID})
						}
					}
				}
				// The batch commits through the log grouped by target —
				// availability was checked up front and nothing between
				// there and here can depose the leader, so these cannot
				// fail.
				for i, to := range batchTo {
					_ = cluster.Propose(coord.Op{
						Kind: coord.OpEvacBatch, Shard: to, From: shard, Batch: batchIDs[i],
					})
				}
			}
		}

		// Periodic rebalance from the demand EMAs.
		if rb.Due(slot) {
			applyShares()
		}
		// Registry/SLO sampling (Sim.Health) rides the same virtual clock
		// as the fleet series above.
		sim.Health.Sample(int64(slot))
	}
	for _, s := range active {
		finish(s)
	}
	sortOutcomes(report.Outcomes)
	report.Rebalances = rb.Rebalances()
	report.EvacBatches = evac.Batches()
	for i := range report.Shards {
		report.Shards[i].FinalBudgetMbps = budget[i]
	}
	if cluster != nil {
		report.Coord = &CoordOutcome{
			Replicas:         cluster.Replicas(),
			Term:             cluster.Term(),
			Elections:        cluster.Elections(),
			Commits:          cluster.Commits(),
			Rejected:         cluster.Rejected(),
			SnapshotInstalls: cluster.SnapshotInstalls(),
			LeaderlessSlots:  coordLeaderless,
			Converged:        cluster.Converged(),
		}
	}
	return report, nil
}

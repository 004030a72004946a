package fleet

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet/coord"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/server"
)

// LiveConfig parametrizes the in-process live fleet coordinator.
type LiveConfig struct {
	// Shards is the number of in-process server shards (default 2).
	Shards int
	// Base is the server config template. Each shard gets a copy with its
	// own ShardID, loopback ephemeral addresses and an equal initial slice
	// of GlobalBudgetMbps. Shared observability (Metrics, SLO, Breaker,
	// Tracer, Recorder) stays shared across shards — that is what lets SLO
	// windows and traces survive a migration.
	Base server.Config
	// GlobalBudgetMbps is the fleet's total B(t) (default
	// Base.BudgetMbps, i.e. one server's budget spread over the fleet).
	GlobalBudgetMbps float64
	// NewAllocator, when non-nil, builds a fresh allocator per shard.
	// Stateful allocators (the default solver keeps solve scratch) must
	// not be shared across concurrently-running shard slot loops.
	NewAllocator func() core.Allocator
	// Scorer ranks shards at placement (default LeastLoaded).
	Scorer Scorer
	// Recorder captures placement decisions; nil disables.
	Recorder *obs.PlacementRecorder
	// Health, when non-nil, receives per-shard fleet series (sessions,
	// budget, demand, page fraction) every Tick, keyed on the coordinator
	// slot clock. The evacuation loop reads its page-frac windows, so Evac
	// without Health gets a private store.
	Health *tsdb.Store
	// Evac enables the SLO-pressure evacuation loop: Tick watches each
	// shard's rolling page-frac window and live-migrates sessions off
	// shards that stay hot, with hysteresis and cooldowns (see EvacConfig).
	Evac EvacConfig
	// Coord configures the replicated coordinator: Coord.Replicas is the
	// replica count (zero or less means 1 — a single replica, the
	// zero-cost path; 2f+1 replicas tolerate f crashes with ownership
	// mutations stalling at most Coord.LeaseSlots per leader loss), plus
	// lease length and snapshot cadence.
	Coord coord.Config
}

// Live runs N in-process server shards under the fleet Controller. The
// Controller decides — placement, budget split, who moves where — and Live
// performs: it exports, adopts, flips and releases real sessions over the
// reconnect/Welcome-resume machinery, pushes budgets and fencing epochs to
// the servers and closes the ones that die. All methods are safe for
// concurrent use.
type Live struct {
	cfg     LiveConfig
	servers []*server.Server

	// mu is the Controller's lock. It is never held across a call into a
	// server: export, adopt and release take the servers' own locks and
	// close connections, and the clients those wake call back into Addr.
	mu  sync.Mutex
	ctl *Controller
}

// NewLive builds and starts the fleet.
func NewLive(cfg LiveConfig) (*Live, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.GlobalBudgetMbps <= 0 {
		cfg.GlobalBudgetMbps = cfg.Base.BudgetMbps
	}
	if cfg.Base.Logf == nil {
		cfg.Base.Logf = func(string, ...any) {}
	}
	l := &Live{cfg: cfg, ctl: NewController(ControllerConfig{
		Shards:            cfg.Shards,
		Zones:             cfg.Shards,
		GlobalBudgetMbps:  cfg.GlobalBudgetMbps,
		Scorer:            cfg.Scorer,
		Recorder:          cfg.Recorder,
		Evac:              cfg.Evac,
		Health:            cfg.Health,
		Coord:             cfg.Coord,
		SessionDemandMbps: server.InitialUserMbps,
		Metrics:           cfg.Base.Metrics,
	})}
	for i := 0; i < cfg.Shards; i++ {
		scfg := cfg.Base
		scfg.ShardID = i
		scfg.TCPAddr = ""
		scfg.UDPAddr = ""
		scfg.BudgetMbps = cfg.GlobalBudgetMbps / float64(cfg.Shards)
		if cfg.NewAllocator != nil {
			scfg.Allocator = cfg.NewAllocator()
		}
		srv, err := server.New(scfg)
		if err != nil {
			for _, prev := range l.servers {
				prev.Close()
			}
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		l.servers = append(l.servers, srv)
	}
	return l, nil
}

// ShardAddr returns shard i's control address.
func (l *Live) ShardAddr(i int) string { return l.servers[i].ControlAddr() }

// Addr returns the control address of the shard that currently owns the
// session — the client's Redirect hook. An unplaced user gets shard 0.
// During a coordinator failover the read replica may briefly lag, which is
// safe: the client redials, the stale shard has no session, and the next
// re-resolve lands on the committed owner.
func (l *Live) Addr(user uint32) string {
	return l.servers[max(l.owner(user), 0)].ControlAddr()
}

// owner returns the shard that owns the session (-1 if unplaced).
func (l *Live) owner(user uint32) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if shard, ok := l.ctl.owner(user); ok {
		return shard
	}
	return -1
}

// Place admits a new session: scores the shards, records the decision and
// returns the winning shard index. The caller dials the returned shard's
// ControlAddr (see ShardAddr) and should set the client's Redirect to
// Addr(user) so later migrations find it.
func (l *Live) Place(sess SessionInfo) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ctl.Place(sess)
}

// Forget drops a departed session from the ownership table; a leaderless
// coordinator queues the departure (Controller.Forget).
func (l *Live) Forget(user uint32) {
	l.mu.Lock()
	l.ctl.Forget(user)
	l.mu.Unlock()
}

// healthStore returns the coordinator's time-series store (nil when neither
// LiveConfig.Health nor the evacuation loop enabled one). Mount it on
// /debug/health via tsdb.Handler.
func (l *Live) healthStore() *tsdb.Store { return l.ctl.healthStore() }

// evacuations reports how many sessions the SLO-pressure loop has moved.
func (l *Live) evacuations() int { return l.Outcome().Evacuations }

func (l *Live) paging(user uint32) bool {
	slo := l.cfg.Base.SLO
	return slo != nil && slo.State(user) == obs.SLOStatePage
}

func (l *Live) sessionInfo(user uint32, shard int) SessionInfo {
	return SessionInfo{ID: user, Zone: shard, DemandMbps: server.InitialUserMbps}
}

// ownedLocked lists the sessions bound to shard i, ascending (the owner
// map's walk is unordered; what follows must not be). Caller holds l.mu.
func (l *Live) ownedLocked(i int) []uint32 {
	var users []uint32
	l.ctl.eachOwner(func(user uint32, shard int) {
		if shard == i {
			users = append(users, user)
		}
	})
	slices.Sort(users)
	return users
}

// migrate moves one session to the best-scoring other shard: export on the
// source (closing its control connection, which triggers the client's
// redial), adopt on the target, and flip ownership so the client's Redirect
// hook resolves to the adopting shard. reason is one of the obs.Place*
// constants. Returns the target shard.
func (l *Live) migrate(user uint32, reason string) (int, error) {
	l.mu.Lock()
	from, ok := l.ctl.owner(user)
	if !ok {
		l.mu.Unlock()
		return -1, fmt.Errorf("fleet: migrate: unknown session %d", user)
	}
	if !l.ctl.available() {
		// Refuse to even start: an export that cannot commit its
		// ownership flip would only be rolled back again.
		l.mu.Unlock()
		return -1, fmt.Errorf("fleet: migrate session %d: %w", user, coord.ErrUnavailable)
	}
	to := l.ctl.route(l.sessionInfo(user, from), from, reason)
	l.mu.Unlock()
	if to < 0 {
		return -1, fmt.Errorf("fleet: migrate: no shard can adopt session %d", user)
	}

	// Ordering is the whole protocol: snapshot the state, register it on
	// the adopting shard, commit the ownership flip (so the client's
	// Redirect hook resolves to the target), and only then close the
	// source's control connection to trigger the redial. Any other order
	// lets the client's fresh Hello race the adoption or redial back into
	// the source. Every step that can fail after the export rolls the
	// export back — the session must never be left flagged as handed off
	// on a shard that still owns it.
	st, err := l.servers[from].ExportSession(user)
	if err != nil {
		return -1, fmt.Errorf("fleet: migrate session %d: %w", user, err)
	}
	if err := l.servers[to].AdoptSession(st); err != nil {
		l.servers[from].CancelExport(user)
		return -1, fmt.Errorf("fleet: migrate session %d: %w", user, err)
	}
	l.mu.Lock()
	err = l.ctl.flip(user, from, to, l.paging(user))
	l.mu.Unlock()
	if err != nil {
		// The flip did not commit: the source keeps the session. Undo the
		// adoption before it can consume a redial, then clear the handoff
		// flag so the session retires normally.
		l.servers[to].DropAdopted(user)
		l.servers[from].CancelExport(user)
		return -1, fmt.Errorf("fleet: migrate session %d: %w", user, err)
	}
	if err := l.servers[from].ReleaseSession(user); err != nil {
		return -1, fmt.Errorf("fleet: migrate session %d: %w", user, err)
	}
	return to, nil
}

// resplit re-splits the budget and pushes the committed shares to the
// servers. A shard out of the split keeps its last budget for whatever it
// still serves (SetBudget ignores a zero share; a dead server is closed).
func (l *Live) resplit() {
	l.mu.Lock()
	shares := l.ctl.Resplit()
	l.mu.Unlock()
	l.setBudgets(shares)
}

func (l *Live) setBudgets(shares []float64) {
	for i, share := range shares {
		l.servers[i].SetBudget(share)
	}
}

// killShard abruptly kills a shard: its server closes (handoff state is
// lost — a kill is a crash, not a drain) and its sessions are re-owned by
// the survivors so the clients' Redirect hooks resolve elsewhere when their
// reconnect fires. Returns how many were re-owned; Tick re-owns the rest.
func (l *Live) killShard(i int) int {
	n, _ := l.shardEvent(ShardEvent{ShardKilled, i})
	return n
}

// shardEvent applies one shard event and performs its effects: a killed
// shard's sessions are re-owned at once and its server closed; a draining
// shard (no placements, no budget share) migrates its sessions in ascending
// order, the first error aborting; every event ends in a budget re-split.
func (l *Live) shardEvent(ev ShardEvent) (moved int, err error) {
	l.mu.Lock()
	if !l.ctl.Apply(ev) {
		l.mu.Unlock()
		return 0, nil
	}
	var users []uint32
	if ev.Kind != ShardDrainEnded {
		users = l.ownedLocked(ev.Shard)
	}
	if ev.Kind == ShardKilled {
		moved = l.rerouteLocked(users)
	}
	l.mu.Unlock()
	switch ev.Kind {
	case ShardKilled:
		l.servers[ev.Shard].Close()
	case ShardDrainStarted:
		for _, user := range users {
			if _, err = l.migrate(user, obs.PlaceShardDrain); err != nil {
				break
			}
			moved++
		}
	}
	l.resplit()
	return moved, err
}

// rerouteLocked re-owns sessions bound to dead shards. A session no shard
// can take, and every session once the coordinator turns out leaderless,
// keeps its stale binding — this engine's pending flip: its client keeps
// reconnect-polling Addr — and Tick retries it. Caller holds l.mu.
func (l *Live) rerouteLocked(users []uint32) int {
	replaced := 0
	for _, user := range users {
		from, _ := l.ctl.owner(user)
		to, pending := l.ctl.Reroute(l.sessionInfo(user, from), from, l.paging(user))
		if pending {
			break
		}
		if to >= 0 {
			replaced++
		}
	}
	return replaced
}

// ApplyFaults applies the chaos profile's coordinator and shard faults due at
// slot (Controller.Faults). Call it before the slot's placements and Tick, as
// the virtual-time engine does.
func (l *Live) ApplyFaults(p *chaos.Profile, slot int) {
	l.mu.Lock()
	events := l.ctl.Faults(p, slot)
	l.mu.Unlock()
	for _, ev := range events {
		moved, err := l.shardEvent(ev)
		l.cfg.Base.Logf("fleet: chaos at slot %d: shard %d %s (%d sessions moved, err=%v)", slot, ev.Shard,
			[...]string{ShardKilled: "killed", ShardDrainStarted: "draining", ShardDrainEnded: "drain ended"}[ev.Kind], moved, err)
	}
}

// Tick advances the coordinator's slot clock: the cluster tick and the
// retries it unblocks, this slot's observation of every binding, the health
// series, on the rebalance cadence a budget re-split pushed to the shards,
// and — when the evacuation loop is enabled — the live migration of sessions
// off shards whose windowed page fraction stays above the enter threshold.
func (l *Live) Tick(slot int) {
	l.mu.Lock()
	epoch := l.ctl.Tick(slot) // first: everything below sees the post-election cluster
	// The live observe pass: one sweep of the owner map tallies every
	// session into the router's view and finds the ones stranded on shards
	// that died while the coordinator could not commit.
	l.ctl.ResetTallies()
	var stranded []uint32
	view := l.ctl.States()
	l.ctl.eachOwner(func(user uint32, shard int) {
		l.ctl.Tally(shard, l.paging(user))
		if !view[shard].Alive {
			stranded = append(stranded, user)
		}
	})
	slices.Sort(stranded)
	rerouted := l.rerouteLocked(stranded)
	for i, st := range l.ctl.States() {
		l.ctl.ObserveDemand(i, st.DemandMbps)
	}
	l.ctl.SampleHealth(slot, nil, nil, 0)
	shares := l.ctl.Rebalance(slot)
	if shares == nil && rerouted > 0 {
		// The split the kill asked for was postponed with the flips.
		shares = l.ctl.Resplit()
	}
	// Evacuation decisions happen under the lock (stable view of ownership
	// and the pressure windows); the migrations themselves run after it —
	// Migrate re-takes the lock and talks to the shard servers.
	var victims []EvacCandidate
	for i := range l.servers {
		if !l.ctl.EvacDue(i, slot) {
			continue
		}
		var cands []EvacCandidate
		for _, user := range l.ownedLocked(i) {
			cands = append(cands, EvacCandidate{ID: user, Paging: l.paging(user)})
		}
		victims = append(victims, l.ctl.EvacBatch(cands, slot)...)
	}
	l.mu.Unlock()

	if epoch > 0 {
		// A new term is live: fence every shard before any migration
		// decided under it exports state, so a deposed leader's stale
		// flips are rejected at adoption.
		for _, srv := range l.servers {
			srv.SetCoordEpoch(epoch)
		}
	}
	l.setBudgets(shares)
	for _, v := range victims {
		if _, err := l.migrate(v.ID, obs.PlaceSLOPressure); err != nil {
			continue
		}
		l.mu.Lock()
		l.ctl.noteEvacuated(v.ID, slot)
		l.mu.Unlock()
	}
}

// snapshot builds the /debug/fleet document with up to n recent placement
// records.
func (l *Live) snapshot(n int) obs.FleetSnapshot {
	snap := l.Outcome().Fleet
	snap.Recent = l.cfg.Recorder.Recent(n)
	return snap
}

// Outcome is the control plane's accounting so far (see Controller.Outcome).
func (l *Live) Outcome() Outcome {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ctl.Outcome()
}

// Drain gracefully drains every live shard (concurrently), bounded by
// timeout per shard. Reports whether every shard flushed.
func (l *Live) Drain(timeout time.Duration) bool {
	var wg sync.WaitGroup
	flushed := make([]bool, len(l.servers))
	for i := range l.servers {
		l.mu.Lock()
		flushed[i] = !l.ctl.States()[i].Alive // nothing to flush
		l.mu.Unlock()
		if flushed[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			flushed[i] = l.servers[i].Drain(timeout)
		}(i)
	}
	wg.Wait()
	return !slices.Contains(flushed, false)
}

// Close shuts every shard down.
func (l *Live) Close() error {
	var first error
	for _, srv := range l.servers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// coordKill crashes coordinator replica i (chaos fault coord_kill). A
// killed leader stalls ownership mutations until its lease drains and the
// survivors elect; placements and migrations fail fast in the window and
// their callers retry.
func (l *Live) coordKill(i int) {
	l.mu.Lock()
	l.ctl.coordKill(i)
	l.mu.Unlock()
}

// CoordStatus snapshots the coordinator cluster for /debug/coord.
func (l *Live) CoordStatus() coord.Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ctl.coordStatus()
}

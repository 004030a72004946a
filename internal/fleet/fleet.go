// Package fleet is the multi-server placement layer of the collabvr stack.
// The paper's edge server allocates one bandwidth budget B(t) across its
// users each slot; scaling past a single box requires N such servers
// ("shards") behind a coordinator that (a) places arriving sessions with a
// pluggable scorer, (b) periodically re-splits the global budget across
// shards from observed demand, and (c) live-migrates sessions off dying or
// draining shards using the reconnect + Welcome-resume machinery.
//
// The package is a pure decision core and Live. The core is the policies —
// Scorer, Router, Rebalancer, Evacuator, the replicated owner map in coord,
// all deterministic — and the Controller, the one state machine that runs
// them: it decides and records, with no lock, socket or clock of its own.
// Live performs its decisions on N real server.Servers; the virtual-time
// fleet engine (load.SimulateFleet) performs them on virtual shards. Both
// run the same control plane, so what a sim campaign shows about placement,
// failover and evacuation is what a live run does.
package fleet

// ShardState is one shard's view presented to placement scoring and budget
// rebalancing: everything a router may weigh, nothing engine-specific.
type ShardState struct {
	// ID is the shard index (stable, dense, 0-based).
	ID int
	// Zone is the shard's locality zone.
	Zone int
	// Alive is false once the shard is killed or fully drained; dead
	// shards never receive placements or budget.
	Alive bool
	// Draining shards keep serving their remaining sessions but accept no
	// new placements.
	Draining bool
	// Sessions is the shard's current session count.
	Sessions int
	// BudgetMbps is the shard's current slice of the global budget.
	BudgetMbps float64
	// DemandMbps is the shard's observed bandwidth demand (each engine
	// defines its proxy; scorers only ever use the demand/budget ratio).
	DemandMbps float64
	// PageFrac is the fraction of the shard's sessions whose SLO burn
	// rate is paging — the burn-rate-aware scorer's pressure signal.
	PageFrac float64
}

// accepting reports whether the shard can take a new session.
func (s *ShardState) accepting() bool { return s.Alive && !s.Draining }

// SessionInfo describes the session being placed.
type SessionInfo struct {
	ID uint32
	// Zone is the session's locality zone (the locality-aware scorer
	// prefers a shard in the same zone).
	Zone int
	// DemandMbps is the session's expected bandwidth demand, in the same
	// units as ShardState.DemandMbps.
	DemandMbps float64
}

package load

import (
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/trace"
)

// SimConfig parametrizes the deterministic virtual-time engine. No wall
// clock, no sockets, no goroutines at rest: the same workload and config
// always produce the bit-identical report, which is what makes recorded
// workloads usable as regression reproducers. Workers spreads the per-slot
// work that shares nothing across goroutines — each session's build, and
// each shard's solve and settle once its sessions are built — and
// everything order-sensitive stays on one goroutine in a fixed order, so the
// report is bit-identical at any worker count.
type SimConfig struct {
	Params core.Params
	// NewAllocator builds the allocator (fresh per run, since some keep
	// state). Nil means the paper's proposed algorithm. SimulateFleet calls
	// it once per shard and runs the results concurrently, one goroutine to
	// an allocator at a time: an allocator needs no locking of its own, but
	// whatever the instances of one factory share (a counter, a log) does.
	NewAllocator func() core.Allocator
	// AllocName labels the report.
	AllocName string
	// BudgetMbps is the server's shared throughput budget B(t).
	BudgetMbps float64
	// Metrics, when non-nil, receives the loadgen histograms (per-session
	// QoE, deadline-miss fraction).
	Metrics *obs.Registry
	// Tracer, when non-nil, emits the same span schema as the live engine,
	// on the virtual slot clock: slot boundaries become span timestamps, so
	// a sim run and a live run are analyzable by the same tooling. The
	// slot.decide span's duration is the measured wall time of the
	// session's shard's solve (the one real cost inside a virtual-time
	// slot); all transport spans are purely virtual.
	Tracer *trace.Tracer
	// TraceEpoch salts trace-ID derivation, as in LiveConfig.
	TraceEpoch uint64
	// SLO, when non-nil, is fed each session's per-slot display outcome.
	SLO *obs.SLOMonitor
	// Chaos, when non-nil, injects the profile's faults into the virtual
	// network (per-session capacity cliffs, blackouts, slot drops) and the
	// virtual server (stall, slow ACK, both charged as delay).
	Chaos *chaos.Profile
	// Breaker, when non-nil, caps each session's allocated quality while
	// its SLO burns (graceful degradation: quality drops before users do).
	// Requires SLO, whose state feeds the breaker every slot.
	Breaker *obs.Breaker
	// Recorder, when non-nil, receives one decision SlotRecord per allocated
	// slot, with stable SessionIDs (indices shift under churn, IDs do not)
	// and the per-user objective decomposition.
	Recorder *obs.Recorder
	// CounterfactualK opts recorded decisions into top-K counterfactual
	// capture on heap-solver allocators (see core.SlotTrace.TopK). Zero
	// records no alternatives.
	CounterfactualK int
	// RegretRef, when set with Recorder, re-solves every recorded slot with
	// the pseudo-polynomial DP optimum and fills the record's regret fields
	// (OptimalValue, Regret, UserRegret) against it.
	RegretRef bool
	// RegretResolution is the DP budget grid step (<= 0: budget/2048).
	RegretResolution float64
	// Workers bounds the goroutines a slot's fork-join may use: 0 or less
	// means GOMAXPROCS, 1 keeps the engine serial and spawns nothing. The
	// slot's one parallel loop builds every session (arrival set-up,
	// prediction, tile selection, rate/delay tables, chaos advance,
	// lowering) in chunks of step.Grain, and whoever builds a shard's last
	// chunk solves, settles and observes that shard; the float sums, the
	// recorder, the spans and the control plane's tallies stay serial. The
	// report is bit-identical at any setting.
	Workers int
	// Health, when non-nil, runs one health-sampler pass per virtual slot
	// (after the slot's outcomes have landed in Metrics/SLO), so the sim
	// produces the same multi-resolution series schema as a live server.
	Health *tsdb.Sampler
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Params.Levels == 0 {
		c.Params = core.DefaultSystemParams()
	}
	if c.NewAllocator == nil {
		c.NewAllocator = func() core.Allocator { return core.NewSolverAllocator() }
		if c.AllocName == "" {
			c.AllocName = "proposed"
		}
	}
	if c.AllocName == "" {
		c.AllocName = "custom"
	}
	if c.BudgetMbps <= 0 {
		c.BudgetMbps = 400
	}
	return c
}

// Simulate replays the workload through the full per-slot decision pipeline
// (prediction, tile selection, rate tables, M/M/1 delay, allocation) in
// virtual time, with session churn: sessions join the allocation problem at
// their arrival slot and leave at departure. Overload is modelled on the
// shared egress: when the allocated total exceeds the budget, the excess
// serialization time is charged to every active session's delay.
//
// It is SimulateFleet at one shard, so the profile's fleet faults act on
// that shard and its one coordinator replica: a shard_kill, shard_drain or
// shard_degrade on shard 0 and a coord_* fault on replica 0 apply, and a
// fault on any other shard or replica is an error.
func Simulate(w *Workload, cfg SimConfig) (*RunReport, error) {
	rep, err := SimulateFleet(w, FleetSimConfig{Sim: cfg, Shards: 1})
	if err != nil {
		return nil, err
	}
	rep.Mode = "sim"
	return &rep.RunReport, nil
}

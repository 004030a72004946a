package load

import (
	"fmt"
	"strings"
)

// fleetProbeFunc runs one fleet load probe: n concurrent sessions across
// the given shard count at the given global budget, returning the
// aggregate deadline-miss rate.
type fleetProbeFunc func(n, shards int, globalBudgetMbps float64) (float64, error)

// FleetCapacityResult pairs the two knees a fleet operator sizes against:
// what the whole fleet sustains, and what one shard sustains on its equal
// budget slice. Fleet/(Shards*PerShard) is the fleet's pooling efficiency —
// how much the router's statistical multiplexing buys over N isolated
// shards.
type FleetCapacityResult struct {
	Shards           int
	GlobalBudgetMbps float64
	// Fleet is the capacity of N shards sharing the global budget.
	Fleet *CapacityResult
	// PerShard is the knee of a single shard running on budget/N.
	PerShard *CapacityResult
}

// poolingEfficiency is fleet capacity over shards x per-shard capacity
// (0 when either search bottomed out).
func (r *FleetCapacityResult) poolingEfficiency() float64 {
	if r.Fleet == nil || r.PerShard == nil || r.PerShard.MaxSessions == 0 {
		return 0
	}
	return float64(r.Fleet.MaxSessions) / float64(r.Shards*r.PerShard.MaxSessions)
}

// Format renders both probe ladders and the fleet verdict.
func (r *FleetCapacityResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# fleet capacity search (%d shards, global budget %.0f Mbps)\n",
		r.Shards, r.GlobalBudgetMbps)
	b.WriteString("## fleet total\n")
	b.WriteString(r.Fleet.Format())
	fmt.Fprintf(&b, "## per-shard knee (1 shard at %.1f Mbps)\n",
		r.GlobalBudgetMbps/float64(r.Shards))
	b.WriteString(r.PerShard.Format())
	if eff := r.poolingEfficiency(); eff > 0 {
		fmt.Fprintf(&b, "pooling efficiency: %.2f (fleet %d vs %d x per-shard %d)\n",
			eff, r.Fleet.MaxSessions, r.Shards, r.PerShard.MaxSessions)
	}
	return b.String()
}

// FindFleetCapacity runs the capacity search at both granularities: the
// full fleet (shards sharing the global budget) and a single shard on its
// equal slice. The per-shard search scales the bracket by the shard count
// so both searches spend comparable probe effort.
func FindFleetCapacity(lo, hi int, target float64, shards int,
	globalBudgetMbps float64, probe fleetProbeFunc) (*FleetCapacityResult, error) {
	if shards <= 0 {
		shards = 3
	}
	res := &FleetCapacityResult{Shards: shards, GlobalBudgetMbps: globalBudgetMbps}

	fleetRes, err := FindCapacity(lo, hi, target, func(n int) (float64, error) {
		return probe(n, shards, globalBudgetMbps)
	})
	if err != nil {
		return nil, fmt.Errorf("fleet search: %w", err)
	}
	res.Fleet = fleetRes

	shardLo := lo / shards
	if shardLo < 1 {
		shardLo = 1
	}
	shardHi := hi / shards
	if shardHi < shardLo {
		shardHi = shardLo
	}
	perShard, err := FindCapacity(shardLo, shardHi, target, func(n int) (float64, error) {
		return probe(n, 1, globalBudgetMbps/float64(shards))
	})
	if err != nil {
		return nil, fmt.Errorf("per-shard search: %w", err)
	}
	res.PerShard = perShard
	return res, nil
}

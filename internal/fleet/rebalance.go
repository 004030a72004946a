package fleet

// RebalanceConfig tunes the periodic budget re-split.
type RebalanceConfig struct {
	// EverySlots is the rebalance cadence on the slot clock (default 120
	// — two seconds at the paper's 60 Hz slot rate).
	EverySlots int
	// Alpha is the EMA smoothing factor on observed per-shard demand
	// (default 0.3); smoothing keeps a one-slot demand spike from
	// thrashing budgets between consecutive rebalances.
	Alpha float64
	// MinShareFrac floors every alive shard's slice at this fraction of
	// the equal share B/alive (default 0.25), so a briefly-idle shard is
	// not starved to zero and can still admit a flash crowd.
	MinShareFrac float64
}

func (c RebalanceConfig) withDefaults() RebalanceConfig {
	if c.EverySlots <= 0 {
		c.EverySlots = 120
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.MinShareFrac <= 0 || c.MinShareFrac > 1 {
		c.MinShareFrac = 0.25
	}
	return c
}

// Rebalancer re-splits the global bandwidth budget B(t) across alive shards
// in proportion to their smoothed observed demand. It is pure state + math:
// engines call Observe each slot, Due on the slot clock, and apply the
// Shares result to their shards.
type Rebalancer struct {
	cfg        RebalanceConfig
	demand     []float64 // EMA of observed demand per shard
	primed     []bool
	rebalances int
}

// NewRebalancer builds a rebalancer for n shards.
func NewRebalancer(cfg RebalanceConfig, n int) *Rebalancer {
	return &Rebalancer{
		cfg:    cfg.withDefaults(),
		demand: make([]float64, n),
		primed: make([]bool, n),
	}
}

// Observe folds one slot's observed demand for a shard into its EMA.
func (rb *Rebalancer) Observe(shard int, demandMbps float64) {
	if shard < 0 || shard >= len(rb.demand) {
		return
	}
	if !rb.primed[shard] {
		rb.demand[shard] = demandMbps
		rb.primed[shard] = true
		return
	}
	rb.demand[shard] += rb.cfg.Alpha * (demandMbps - rb.demand[shard])
}

// due reports whether the cadence fires at this slot (slot 0 never fires:
// shards start from the equal split).
func (rb *Rebalancer) due(slot int) bool {
	return slot > 0 && slot%rb.cfg.EverySlots == 0
}

// rebalanceCount counts how many times Shares has been computed.
func (rb *Rebalancer) rebalanceCount() int { return rb.rebalances }

// Shares splits the global budget across the alive shards: every alive
// shard gets the MinShareFrac floor of the equal split, and the remainder
// is divided in proportion to smoothed demand (equally when the fleet is
// idle). Dead shards get zero and the result always sums to global (up to
// float rounding), so the fleet never allocates more than B(t) in aggregate.
func (rb *Rebalancer) Shares(global float64, alive []bool) []float64 {
	rb.rebalances++
	out := make([]float64, len(rb.demand))
	nAlive := 0
	totalDemand := 0.0
	for i := range rb.demand {
		if i < len(alive) && alive[i] {
			nAlive++
			totalDemand += rb.demand[i]
		}
	}
	if nAlive == 0 || global <= 0 {
		return out
	}
	floor := rb.cfg.MinShareFrac * global / float64(nAlive)
	spread := global - float64(nAlive)*floor
	for i := range rb.demand {
		if i >= len(alive) || !alive[i] {
			continue
		}
		if totalDemand > 0 {
			out[i] = floor + spread*rb.demand[i]/totalDemand
		} else {
			out[i] = global / float64(nAlive)
		}
	}
	return out
}

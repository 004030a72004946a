package fleet

// EvacConfig tunes the SLO-pressure evacuation loop (ROADMAP item 1): the
// coordinator watches each shard's rolling page-fraction series and drains
// sessions off shards that stay hot, with hysteresis so a shard flapping
// around the threshold cannot start a migration storm.
type EvacConfig struct {
	// Enabled turns the loop on.
	Enabled bool
	// WindowSlots is how many recent page-frac samples form the pressure
	// signal (default 60). The decision input is the window MEAN, never the
	// instantaneous sample.
	WindowSlots int
	// EnterPressure starts an evacuation when the windowed mean page
	// fraction reaches it (default 0.30). ExitPressure ends the evacuation
	// when the mean falls back under it (default 0.10). Enter > Exit is the
	// hysteresis band.
	EnterPressure float64
	ExitPressure  float64
	// CooldownSlots is the minimum slot gap between evacuation batches from
	// one shard, and also the per-session re-migration guard (default 120).
	CooldownSlots int
	// BatchSessions bounds how many sessions one batch moves (default 2) —
	// draining gradually keeps the receiving shards from paging in turn.
	BatchSessions int
	// MinSamples gates the loop until the window has substance (default
	// WindowSlots/2): a just-started shard must not be judged on 3 samples.
	MinSamples int
}

func (c EvacConfig) withDefaults() EvacConfig {
	if c.WindowSlots <= 0 {
		c.WindowSlots = 60
	}
	if c.EnterPressure <= 0 {
		c.EnterPressure = 0.30
	}
	if c.ExitPressure <= 0 {
		c.ExitPressure = c.EnterPressure / 3
	}
	if c.ExitPressure > c.EnterPressure {
		c.ExitPressure = c.EnterPressure
	}
	if c.CooldownSlots <= 0 {
		c.CooldownSlots = 120
	}
	if c.BatchSessions <= 0 {
		c.BatchSessions = 2
	}
	if c.MinSamples <= 0 {
		c.MinSamples = c.WindowSlots / 2
		if c.MinSamples == 0 {
			c.MinSamples = 1
		}
	}
	return c
}

// evacShard is one shard's hysteresis state.
type evacShard struct {
	evacuating bool
	lastBatch  int64 // slot of the last batch; -1 = never
}

// Evacuator is the deterministic hysteresis controller shared by the sim
// and live fleet engines. It is NOT concurrency-safe: both engines drive it
// from their single coordinator loop. A nil *Evacuator is the disabled
// controller: every method is a no-op reporting "do nothing".
type Evacuator struct {
	cfg         EvacConfig
	shards      []evacShard
	lastSession map[uint32]int64
	batches     int
	moved       int
}

// NewEvacuator builds a controller for nShards shards. Returns nil when the
// config is disabled, so wiring can pass the config through unconditionally.
func NewEvacuator(cfg EvacConfig, nShards int) *Evacuator {
	if !cfg.Enabled {
		return nil
	}
	e := &Evacuator{cfg: cfg.withDefaults(), shards: make([]evacShard, nShards), lastSession: make(map[uint32]int64)}
	for i := range e.shards {
		e.shards[i].lastBatch = -1
	}
	return e
}

// Config returns the effective (default-filled) configuration.
func (e *Evacuator) Config() EvacConfig {
	if e == nil {
		return EvacConfig{}
	}
	return e.cfg
}

// Update advances one shard's hysteresis state with its current windowed
// pressure (mean page fraction over the last `samples` slots) and reports
// whether the shard should evacuate a batch this slot. The three gates, in
// order: the window must have >= MinSamples substance; the enter/exit
// thresholds flip the evacuating latch; and a latched shard only fires a
// batch every CooldownSlots.
func (e *Evacuator) Update(shard int, slot int64, pressure float64, samples int) bool {
	if e == nil || shard < 0 || shard >= len(e.shards) {
		return false
	}
	s := &e.shards[shard]
	if samples < e.cfg.MinSamples {
		return false
	}
	if !s.evacuating {
		if pressure >= e.cfg.EnterPressure {
			s.evacuating = true
		} else {
			return false
		}
	} else if pressure < e.cfg.ExitPressure {
		s.evacuating = false
		return false
	}
	if s.lastBatch >= 0 && slot-s.lastBatch < int64(e.cfg.CooldownSlots) {
		return false
	}
	s.lastBatch = slot
	e.batches++
	return true
}

// allowSession reports whether a session may be migrated at slot — false
// while it is still inside the cooldown window of its previous
// evacuation, the per-session half of the no-oscillation guarantee.
func (e *Evacuator) allowSession(user uint32, slot int64) bool {
	if e == nil {
		return false
	}
	last, ok := e.lastSession[user]
	return !ok || slot-last >= int64(e.cfg.CooldownSlots)
}

// noteMigration records that a session was evacuated at slot.
func (e *Evacuator) noteMigration(user uint32, slot int64) {
	if e == nil {
		return
	}
	e.lastSession[user] = slot
	e.moved++
}

// forget drops a departed session's cooldown state.
func (e *Evacuator) forget(user uint32) {
	if e == nil {
		return
	}
	delete(e.lastSession, user)
}

// evacuating reports whether the shard's latch is currently set.
func (e *Evacuator) evacuating(shard int) bool {
	return e != nil && shard >= 0 && shard < len(e.shards) && e.shards[shard].evacuating
}

// batchCount returns how many evacuation batches have fired; Moved how many
// sessions they migrated.
func (e *Evacuator) batchCount() int {
	if e == nil {
		return 0
	}
	return e.batches
}

func (e *Evacuator) movedCount() int {
	if e == nil {
		return 0
	}
	return e.moved
}

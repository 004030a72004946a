package obs

import (
	"sort"
	"sync"
)

// SLO alert states, ordered by severity.
const (
	SLOStateOK   = "ok"
	SLOStateWarn = "warn"
	SLOStatePage = "page"
)

// minMeanQuality is the mean delivered-quality-level floor over the long
// window (2.5 of the paper's 1..5 levels).
const minMeanQuality = 2.5

// SLOConfig defines the per-session QoE service-level objectives and the
// multi-window burn-rate alerting policy over them. Windows are counted in
// display slots (the paper's time unit), not wall time, so the live loopback
// engine and the virtual-time engine evaluate identically.
type SLOConfig struct {
	// WindowSlots is the long rolling window (default 600 slots — 60 s of
	// 100 ms slots). ShortWindowSlots is the fast window (default 120).
	WindowSlots      int
	ShortWindowSlots int
	// MissTarget is the deadline-miss-rate objective (default 0.02: at most
	// 2% of frames may miss their display deadline). StallTarget bounds the
	// stall rate, where a stall is a missed frame immediately following
	// another miss — consecutive misses are what users perceive as freezes
	// (default 0.01).
	MissTarget  float64
	StallTarget float64
	// FastBurn and SlowBurn are burn-rate thresholds: consumption of the
	// error budget as a multiple of the target rate. Page when BOTH windows
	// burn at >= FastBurn (default 10); warn at >= SlowBurn on the long
	// window (default 3). The two-window rule is the standard SRE guard
	// against paging on short blips while still catching fast burns quickly.
	FastBurn float64
	SlowBurn float64
}

// DefaultSLOConfig returns the defaults described on SLOConfig.
func DefaultSLOConfig() SLOConfig {
	return SLOConfig{
		WindowSlots:      600,
		ShortWindowSlots: 120,
		MissTarget:       0.02,
		StallTarget:      0.01,
		FastBurn:         10,
		SlowBurn:         3,
	}
}

func (c *SLOConfig) fill() {
	d := DefaultSLOConfig()
	if c.WindowSlots <= 0 {
		c.WindowSlots = d.WindowSlots
	}
	if c.ShortWindowSlots <= 0 || c.ShortWindowSlots > c.WindowSlots {
		c.ShortWindowSlots = c.WindowSlots / 5
		if c.ShortWindowSlots == 0 {
			c.ShortWindowSlots = 1
		}
	}
	if c.MissTarget <= 0 {
		c.MissTarget = d.MissTarget
	}
	if c.StallTarget <= 0 {
		c.StallTarget = d.StallTarget
	}
	if c.FastBurn <= 0 {
		c.FastBurn = d.FastBurn
	}
	if c.SlowBurn <= 0 {
		c.SlowBurn = d.SlowBurn
	}
}

// SLOEntry is one session's rolling QoE window: one ring of WindowSlots
// bytes with incremental sums, so an observation is O(1). A slot's byte
// holds the miss in bit 0, the stall in bit 1 and the displayed level in
// bits 2-7.
//
// An entry is also the session's handle. A caller that observes a session
// every slot takes the entry once with SLOMonitor.Entry and passes it to
// Observe, which takes the entry's own lock and no other. The handle is
// valid from that call until Retire of the session; after that the
// monitor hands the entry to a later session.
type SLOEntry struct {
	mu     sync.Mutex
	window []uint8
	next   int
	filled int

	missLong, stallLong   int
	missShort, stallShort int
	qualitySum            float64
	prevMissed            bool
	state                 string
}

const (
	sloFlagMiss   = 1 << 0
	sloFlagStall  = 1 << 1
	sloLevelShift = 2
	sloMaxLevel   = 1<<(8-sloLevelShift) - 1 // 63: bits 2-7
)

// entryChunk is how many fresh entries the SLO monitor and the breaker
// carve at a time, as many as a chunk of the virtual engine's session
// arena holds: a run that peaks at a few thousand concurrent sessions
// makes tens of allocations for their entries.
const entryChunk = 64

// sloSessionState is one session's externally visible SLO position.
type sloSessionState struct {
	Session      uint32  `json:"session"`
	State        string  `json:"state"`
	Slots        int     `json:"slots"` // window fill, capped at WindowSlots
	MissRate     float64 `json:"miss_rate"`
	MissBurn     float64 `json:"miss_burn"` // long-window burn rate
	MissBurnFast float64 `json:"miss_burn_fast"`
	StallRate    float64 `json:"stall_rate"`
	StallBurn    float64 `json:"stall_burn"`
	MeanQuality  float64 `json:"mean_quality"`
	QualityLow   bool    `json:"quality_low"`
}

// SLOSnapshot is the /debug/slo document.
type SLOSnapshot struct {
	Config        SLOConfig         `json:"config"`
	Sessions      []sloSessionState `json:"sessions"`
	OK            int               `json:"ok"`
	Warn          int               `json:"warn"`
	Page          int               `json:"page"`
	WorstMissBurn float64           `json:"worst_miss_burn"`
}

// SLOMonitor tracks per-session rolling QoE windows against the configured
// objectives and derives multi-window burn-rate alert states. A nil
// *SLOMonitor is the disabled monitor: every method is a no-op.
type SLOMonitor struct {
	cfg SLOConfig
	reg *Registry

	// mu guards the session map, the free list and the chunk; each entry's
	// window is behind the entry's own lock. Whoever takes both takes mu
	// first.
	mu       sync.Mutex
	sessions map[uint32]*SLOEntry
	// free holds retired sessions' entries for the next new session to
	// reuse, last retired first.
	free []*SLOEntry
	// chunk is the current chunk's entries not yet handed out and windows
	// their rings, WindowSlots bytes each.
	chunk   []SLOEntry
	windows []uint8

	// Gauges/counters mirrored into the registry (nil-safe when reg is nil).
	gOK, gWarn, gPage       *Gauge
	gWorstBurn, gQualityLow *Gauge
	cWarnTrans, cPageTrans  *Counter
}

// NewSLOMonitor builds a monitor. Zero-valued config fields take the
// defaults; reg may be nil (no metrics mirroring).
func NewSLOMonitor(cfg SLOConfig, reg *Registry) *SLOMonitor {
	cfg.fill()
	return &SLOMonitor{
		cfg:         cfg,
		reg:         reg,
		sessions:    make(map[uint32]*SLOEntry),
		gOK:         reg.Gauge("collabvr_slo_sessions_ok"),
		gWarn:       reg.Gauge("collabvr_slo_sessions_warn"),
		gPage:       reg.Gauge("collabvr_slo_sessions_page"),
		gWorstBurn:  reg.Gauge("collabvr_slo_worst_miss_burn"),
		gQualityLow: reg.Gauge("collabvr_slo_sessions_quality_breach"),
		cWarnTrans:  reg.Counter("collabvr_slo_warn_transitions_total"),
		cPageTrans:  reg.Counter("collabvr_slo_page_transitions_total"),
	}
}

// Entry returns the session's entry, creating it on first use: a retired
// session's, cleared, when there is one, else the next of the current
// chunk. It returns nil from the disabled monitor.
func (m *SLOMonitor) Entry(session uint32) *SLOEntry {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sessions[session]
	if s == nil {
		s = m.newEntry()
		m.sessions[session] = s
	}
	return s
}

// newEntry returns an empty entry (m.mu held).
func (m *SLOMonitor) newEntry() *SLOEntry {
	var s *SLOEntry
	if n := len(m.free); n > 0 {
		s = m.free[n-1]
		m.free = m.free[:n-1]
		clear(s.window)
	} else {
		w := m.cfg.WindowSlots
		if len(m.chunk) == 0 {
			m.chunk, m.windows = make([]SLOEntry, entryChunk), make([]uint8, entryChunk*w)
		}
		s = &m.chunk[0]
		s.window = m.windows[:w:w]
		m.chunk, m.windows = m.chunk[1:], m.windows[w:]
	}
	*s = SLOEntry{window: s.window, state: SLOStateOK}
	return s
}

// ObserveSlot folds one session's display-slot outcome into its rolling
// window: whether the frame met its display deadline and the quality
// delivered, the displayed level 0..63 (0 for a missed frame). It
// is Observe on the session's Entry.
func (m *SLOMonitor) ObserveSlot(session uint32, displayed bool, quality float64) string {
	return m.Observe(m.Entry(session), displayed, quality)
}

// Observe folds one display-slot outcome into the window of s, an entry
// from Entry, as ObserveSlot describes. It returns the session's alert
// state after the slot, what State would report ("" from the disabled
// monitor), so a caller feeding the breaker needs no second lookup. It
// takes only the entry's lock and the transition counters are atomic:
// observing distinct sessions from several goroutines ends in the same
// states and counts in any order.
func (m *SLOMonitor) Observe(s *SLOEntry, displayed bool, quality float64) string {
	if m == nil {
		return ""
	}
	level := sloLevel(quality)
	s.mu.Lock()
	missed := !displayed
	stalled := missed && s.prevMissed
	s.prevMissed = missed
	slot := level << sloLevelShift
	if missed {
		slot |= sloFlagMiss
	}
	if stalled {
		slot |= sloFlagStall
	}

	// Retire the slot leaving the long window.
	if s.filled == len(s.window) {
		old := s.window[s.next]
		s.missLong -= int(old & sloFlagMiss)
		s.stallLong -= int(old & sloFlagStall >> 1)
		s.qualitySum -= float64(old >> sloLevelShift)
	}
	// Retire the slot leaving the short window.
	shortN := m.cfg.ShortWindowSlots
	if s.filled >= shortN {
		old := s.window[(s.next-shortN+len(s.window))%len(s.window)]
		s.missShort -= int(old & sloFlagMiss)
		s.stallShort -= int(old & sloFlagStall >> 1)
	}

	s.window[s.next] = slot
	s.qualitySum += float64(level)
	if missed {
		s.missLong++
		s.missShort++
	}
	if stalled {
		s.stallLong++
		s.stallShort++
	}
	s.next = (s.next + 1) % len(s.window)
	if s.filled < len(s.window) {
		s.filled++
	}

	m.transition(s)
	state := s.state
	s.mu.Unlock()
	return state
}

// sloLevel is the level bits of a window slot for a displayed quality,
// clamped to 0..63.
func sloLevel(quality float64) uint8 {
	switch {
	case !(quality > 0):
		return 0
	case quality >= sloMaxLevel:
		return sloMaxLevel
	}
	return uint8(quality)
}

// transition recomputes the session's alert state (s.mu held).
func (m *SLOMonitor) transition(s *SLOEntry) {
	state := SLOStateOK
	// Alerting is gated until the short window has filled once: burn rates
	// over a handful of slots are meaningless.
	if s.filled >= m.cfg.ShortWindowSlots {
		longN := float64(s.filled)
		shortN := float64(min(s.filled, m.cfg.ShortWindowSlots))
		missBurnLong := float64(s.missLong) / longN / m.cfg.MissTarget
		missBurnShort := float64(s.missShort) / shortN / m.cfg.MissTarget
		stallBurnLong := float64(s.stallLong) / longN / m.cfg.StallTarget
		stallBurnShort := float64(s.stallShort) / shortN / m.cfg.StallTarget
		switch {
		case (missBurnLong >= m.cfg.FastBurn && missBurnShort >= m.cfg.FastBurn) ||
			(stallBurnLong >= m.cfg.FastBurn && stallBurnShort >= m.cfg.FastBurn):
			state = SLOStatePage
		case missBurnLong >= m.cfg.SlowBurn || stallBurnLong >= m.cfg.SlowBurn:
			state = SLOStateWarn
		}
	}
	if state != s.state {
		switch state {
		case SLOStateWarn:
			m.cWarnTrans.Inc()
		case SLOStatePage:
			m.cPageTrans.Inc()
		}
		s.state = state
	}
}

// Retire drops a departed session's window and keeps its entry for the
// next session the monitor sees. The session's handle is void from here.
func (m *SLOMonitor) Retire(session uint32) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if s := m.sessions[session]; s != nil {
		delete(m.sessions, session)
		m.free = append(m.free, s)
	}
	m.mu.Unlock()
}

// State returns one session's alert state ("" when unknown).
func (m *SLOMonitor) State(session uint32) string {
	if m == nil {
		return ""
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sessions[session]
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// each calls fn with the position of every session that has observed a
// slot, in map order, under the monitor lock.
func (m *SLOMonitor) each(fn func(sloSessionState)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, s := range m.sessions {
		s.mu.Lock()
		if s.filled == 0 {
			s.mu.Unlock()
			continue
		}
		longN := float64(s.filled)
		shortN := float64(min(s.filled, m.cfg.ShortWindowSlots))
		st := sloSessionState{
			Session:      id,
			State:        s.state,
			Slots:        s.filled,
			MissRate:     float64(s.missLong) / longN,
			MissBurn:     float64(s.missLong) / longN / m.cfg.MissTarget,
			MissBurnFast: float64(s.missShort) / shortN / m.cfg.MissTarget,
			StallRate:    float64(s.stallLong) / longN,
			StallBurn:    float64(s.stallLong) / longN / m.cfg.StallTarget,
			MeanQuality:  s.qualitySum / longN,
		}
		st.QualityLow = st.MeanQuality < minMeanQuality && s.filled >= m.cfg.ShortWindowSlots
		s.mu.Unlock()
		fn(st)
	}
}

// sloTally is the monitor's totals: sessions per alert state, sessions
// under the quality floor and the worst long-window miss burn rate.
type sloTally struct {
	ok, warn, page, qualityLow int
	worstBurn                  float64
}

// add counts one session: its alert state, its long-window miss burn rate
// and whether it is under the quality floor.
func (t *sloTally) add(state string, missBurn float64, qualityLow bool) {
	switch state {
	case SLOStatePage:
		t.page++
	case SLOStateWarn:
		t.warn++
	default:
		t.ok++
	}
	if qualityLow {
		t.qualityLow++
	}
	if missBurn > t.worstBurn {
		t.worstBurn = missBurn
	}
}

// tally counts the live sessions in one pass that reads only what the
// totals need — state, fill, long-window misses and quality sum — and
// builds no snapshot row. Its burn rate and quality floor are each's
// expressions, so it counts what Snapshot counts.
func (m *SLOMonitor) tally() (t sloTally) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.sessions {
		s.mu.Lock()
		state, filled, missLong, qualitySum := s.state, s.filled, s.missLong, s.qualitySum
		s.mu.Unlock()
		if filled == 0 {
			continue
		}
		longN := float64(filled)
		t.add(state, float64(missLong)/longN/m.cfg.MissTarget,
			qualitySum/longN < minMeanQuality && filled >= m.cfg.ShortWindowSlots)
	}
	return t
}

// setGauges mirrors t into the registry gauges.
func (m *SLOMonitor) setGauges(t sloTally) {
	m.gOK.Set(float64(t.ok))
	m.gWarn.Set(float64(t.warn))
	m.gPage.Set(float64(t.page))
	m.gWorstBurn.Set(t.worstBurn)
	m.gQualityLow.Set(float64(t.qualityLow))
}

// Snapshot returns every live session's SLO position and refreshes the
// mirrored registry gauges.
func (m *SLOMonitor) Snapshot() SLOSnapshot {
	if m == nil {
		return SLOSnapshot{}
	}
	snap := SLOSnapshot{Config: m.cfg}
	var t sloTally
	m.each(func(st sloSessionState) {
		t.add(st.State, st.MissBurn, st.QualityLow)
		snap.Sessions = append(snap.Sessions, st)
	})
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].Session < snap.Sessions[j].Session })
	snap.OK, snap.Warn, snap.Page, snap.WorstMissBurn = t.ok, t.warn, t.page, t.worstBurn
	m.setGauges(t)
	return snap
}

// Totals returns the session counts per alert state and the worst
// long-window miss burn rate without building the snapshot document — the
// allocation-free form the health sampler calls every slot.
func (m *SLOMonitor) Totals() (ok, warn, page int, worstBurn float64) {
	if m == nil {
		return 0, 0, 0, 0
	}
	t := m.tally()
	return t.ok, t.warn, t.page, t.worstBurn
}

// refreshGauges recomputes the mirrored registry gauges in one
// allocation-free pass, as Totals does; the metrics handler calls it before
// serving a scrape.
func (m *SLOMonitor) refreshGauges() {
	if m == nil {
		return
	}
	m.setGauges(m.tally())
}

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
	// MinMeanQuality is the mean delivered-quality-level floor over the long
	// window (default 2.5 of the paper's 1..5 levels).
	MinMeanQuality float64
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
		MinMeanQuality:   2.5,
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
	if c.MinMeanQuality <= 0 {
		c.MinMeanQuality = d.MinMeanQuality
	}
	if c.FastBurn <= 0 {
		c.FastBurn = d.FastBurn
	}
	if c.SlowBurn <= 0 {
		c.SlowBurn = d.SlowBurn
	}
}

// sloSession is one session's rolling QoE window. Misses, stalls and quality
// are kept as ring buffers of WindowSlots entries with incremental sums, so
// ObserveSlot is O(1).
type sloSession struct {
	flags   []uint8 // bit 0: missed, bit 1: stalled
	quality []float32
	next    int
	filled  int

	missLong, stallLong   int
	missShort, stallShort int
	qualitySum            float64
	prevMissed            bool
	state                 string
}

const (
	sloFlagMiss  = 1 << 0
	sloFlagStall = 1 << 1
)

// SLOSessionState is one session's externally visible SLO position.
type SLOSessionState struct {
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
	Sessions      []SLOSessionState `json:"sessions"`
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

	mu       sync.Mutex
	sessions map[uint32]*sloSession
	// free holds retired sessions' windows for the next new session to
	// reuse, last retired first.
	free []*sloSession

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
		sessions:    make(map[uint32]*sloSession),
		gOK:         reg.Gauge("collabvr_slo_sessions_ok"),
		gWarn:       reg.Gauge("collabvr_slo_sessions_warn"),
		gPage:       reg.Gauge("collabvr_slo_sessions_page"),
		gWorstBurn:  reg.Gauge("collabvr_slo_worst_miss_burn"),
		gQualityLow: reg.Gauge("collabvr_slo_sessions_quality_breach"),
		cWarnTrans:  reg.Counter("collabvr_slo_warn_transitions_total"),
		cPageTrans:  reg.Counter("collabvr_slo_page_transitions_total"),
	}
}

// Enabled reports whether the monitor records observations.
func (m *SLOMonitor) Enabled() bool { return m != nil }

// ObserveSlot folds one session's display-slot outcome into its rolling
// window: whether the frame met its display deadline and the quality level
// delivered (0 for a missed frame). It returns the session's alert state after
// the slot, what State would report ("" from the disabled monitor), so a
// caller feeding the breaker needs no second lookup. Sessions are
// independent and the transition counters are atomic: observing distinct
// sessions from several goroutines ends in the same states and counts in
// any order.
func (m *SLOMonitor) ObserveSlot(session uint32, displayed bool, quality float64) string {
	if m == nil {
		return ""
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sessions[session]
	if s == nil {
		s = m.newSession()
		m.sessions[session] = s
	}

	missed := !displayed
	stalled := missed && s.prevMissed
	s.prevMissed = missed
	var flag uint8
	if missed {
		flag |= sloFlagMiss
	}
	if stalled {
		flag |= sloFlagStall
	}

	// Retire the slot leaving the long window.
	if s.filled == len(s.flags) {
		old := s.flags[s.next]
		if old&sloFlagMiss != 0 {
			s.missLong--
		}
		if old&sloFlagStall != 0 {
			s.stallLong--
		}
		s.qualitySum -= float64(s.quality[s.next])
	}
	// Retire the slot leaving the short window.
	shortN := m.cfg.ShortWindowSlots
	if s.filled >= shortN {
		idx := (s.next - shortN + len(s.flags)) % len(s.flags)
		old := s.flags[idx]
		if old&sloFlagMiss != 0 {
			s.missShort--
		}
		if old&sloFlagStall != 0 {
			s.stallShort--
		}
	}

	s.flags[s.next] = flag
	s.quality[s.next] = float32(quality)
	s.qualitySum += quality
	if flag&sloFlagMiss != 0 {
		s.missLong++
		s.missShort++
	}
	if flag&sloFlagStall != 0 {
		s.stallLong++
		s.stallShort++
	}
	s.next = (s.next + 1) % len(s.flags)
	if s.filled < len(s.flags) {
		s.filled++
	}

	m.transition(s)
	return s.state
}

// newSession returns an empty window: a retired session's, cleared, when
// there is one (m.mu held).
func (m *SLOMonitor) newSession() *sloSession {
	n := len(m.free)
	if n == 0 {
		return &sloSession{
			flags:   make([]uint8, m.cfg.WindowSlots),
			quality: make([]float32, m.cfg.WindowSlots),
			state:   SLOStateOK,
		}
	}
	s := m.free[n-1]
	m.free = m.free[:n-1]
	clear(s.flags)
	clear(s.quality)
	*s = sloSession{flags: s.flags, quality: s.quality, state: SLOStateOK}
	return s
}

// transition recomputes the session's alert state (m.mu held).
func (m *SLOMonitor) transition(s *sloSession) {
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

// Retire drops a departed session's window and keeps its storage for the
// next session the monitor sees.
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
	if s := m.sessions[session]; s != nil {
		return s.state
	}
	return ""
}

// Snapshot returns every live session's SLO position and refreshes the
// mirrored registry gauges, so a /metrics scrape through RefreshGauges sees
// current values.
func (m *SLOMonitor) Snapshot() SLOSnapshot {
	if m == nil {
		return SLOSnapshot{}
	}
	m.mu.Lock()
	snap := SLOSnapshot{Config: m.cfg}
	qualityLow := 0
	for id, s := range m.sessions {
		longN := float64(s.filled)
		if longN == 0 {
			continue
		}
		shortN := float64(min(s.filled, m.cfg.ShortWindowSlots))
		st := SLOSessionState{
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
		st.QualityLow = st.MeanQuality < m.cfg.MinMeanQuality && s.filled >= m.cfg.ShortWindowSlots
		if st.QualityLow {
			qualityLow++
		}
		switch s.state {
		case SLOStatePage:
			snap.Page++
		case SLOStateWarn:
			snap.Warn++
		default:
			snap.OK++
		}
		if st.MissBurn > snap.WorstMissBurn {
			snap.WorstMissBurn = st.MissBurn
		}
		snap.Sessions = append(snap.Sessions, st)
	}
	m.mu.Unlock()
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].Session < snap.Sessions[j].Session })

	m.gOK.Set(float64(snap.OK))
	m.gWarn.Set(float64(snap.Warn))
	m.gPage.Set(float64(snap.Page))
	m.gWorstBurn.Set(snap.WorstMissBurn)
	m.gQualityLow.Set(float64(qualityLow))
	return snap
}

// Totals returns the session counts per alert state and the worst
// long-window miss burn rate without building the snapshot document — the
// allocation-free form the health sampler calls every slot.
func (m *SLOMonitor) Totals() (ok, warn, page int, worstBurn float64) {
	if m == nil {
		return 0, 0, 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.sessions {
		longN := float64(s.filled)
		if longN == 0 {
			continue
		}
		switch s.state {
		case SLOStatePage:
			page++
		case SLOStateWarn:
			warn++
		default:
			ok++
		}
		if burn := float64(s.missLong) / longN / m.cfg.MissTarget; burn > worstBurn {
			worstBurn = burn
		}
	}
	return ok, warn, page, worstBurn
}

// RefreshGauges recomputes the mirrored registry gauges (Snapshot without
// the document); the metrics handler calls it before serving a scrape.
func (m *SLOMonitor) RefreshGauges() {
	if m == nil {
		return
	}
	m.Snapshot()
}

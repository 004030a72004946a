package obs

import "sync"

// Breaker states. A session's breaker degrades quality before the system
// ever considers dropping the session: the paper's QoE model values presence
// (FoV coverage) over fidelity, so a struggling session is pinned to a lower
// q_n ceiling until its SLO position recovers.
const (
	BreakerClosed   = "closed"    // healthy: allocation uncapped
	BreakerDegraded = "degraded"  // SLO warn: quality capped at WarnCap
	BreakerOpen     = "open"      // SLO page: quality capped at PageCap
	BreakerHalfOpen = "half-open" // probing recovery at HalfOpenCap
)

// BreakerConfig tunes the per-session circuit breaker driven by the SLO
// monitor's alert states. All windows are counted in display slots.
type BreakerConfig struct {
	// Levels is the quality ladder size (default 5, the paper's 1..5).
	Levels int
	// WarnCap is the ceiling in the degraded state (default Levels-1).
	WarnCap int
	// PageCap is the ceiling in the open state (default 1: lowest quality,
	// but never zero — coverage is preserved, fidelity is sacrificed).
	PageCap int
	// HalfOpenCap is the probing ceiling (default WarnCap).
	HalfOpenCap int
	// RecoverySlots is how many consecutive non-page slots an open breaker
	// needs before probing half-open, and how many consecutive ok slots a
	// degraded breaker needs to close (default 300).
	RecoverySlots int
	// HalfOpenSlots is how many consecutive non-page slots the half-open
	// probe must survive to close (default RecoverySlots/2).
	HalfOpenSlots int
}

// DefaultBreakerConfig returns the defaults described on BreakerConfig.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{Levels: 5, RecoverySlots: 300}
}

func (c *BreakerConfig) fill() {
	d := DefaultBreakerConfig()
	if c.Levels <= 0 {
		c.Levels = d.Levels
	}
	if c.WarnCap <= 0 || c.WarnCap > c.Levels {
		c.WarnCap = c.Levels - 1
		if c.WarnCap == 0 {
			c.WarnCap = 1
		}
	}
	if c.PageCap <= 0 || c.PageCap > c.WarnCap {
		c.PageCap = 1
	}
	if c.HalfOpenCap <= 0 || c.HalfOpenCap > c.Levels {
		c.HalfOpenCap = c.WarnCap
	}
	if c.RecoverySlots <= 0 {
		c.RecoverySlots = d.RecoverySlots
	}
	if c.HalfOpenSlots <= 0 {
		c.HalfOpenSlots = c.RecoverySlots / 2
		if c.HalfOpenSlots == 0 {
			c.HalfOpenSlots = 1
		}
	}
}

// breakerSession is one session's breaker state machine.
type breakerSession struct {
	state  string
	streak int // consecutive recovery-qualifying slots in the current state
}

// Breaker is the per-session quality circuit breaker. Feed it the SLO
// monitor's alert state once per display slot via Observe; read the current
// quality ceiling via Cap. A nil *Breaker is the disabled breaker: every
// method is a no-op and Cap reports "uncapped".
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	sessions map[uint32]*breakerSession

	cOpened, cDegraded, cClosed *Counter
	gOpen, gDegraded            *Gauge
}

// NewBreaker builds a breaker. Zero-valued config fields take the defaults;
// reg may be nil (no metrics mirroring).
func NewBreaker(cfg BreakerConfig, reg *Registry) *Breaker {
	cfg.fill()
	return &Breaker{
		cfg:       cfg,
		sessions:  make(map[uint32]*breakerSession),
		cOpened:   reg.Counter("collabvr_breaker_open_transitions_total"),
		cDegraded: reg.Counter("collabvr_breaker_degraded_transitions_total"),
		cClosed:   reg.Counter("collabvr_breaker_close_transitions_total"),
		gOpen:     reg.Gauge("collabvr_breaker_sessions_open"),
		gDegraded: reg.Gauge("collabvr_breaker_sessions_degraded"),
	}
}

// Config returns the effective (default-filled) configuration.
func (b *Breaker) Config() BreakerConfig {
	if b == nil {
		return BreakerConfig{}
	}
	return b.cfg
}

// Observe folds one slot's SLO alert state ("ok"/"warn"/"page"; "" is
// treated as ok) into the session's breaker. Call once per display slot. It
// returns the session's quality ceiling after the slot, what Cap would
// report (0: uncapped, and always from the disabled breaker).
func (b *Breaker) Observe(session uint32, sloState string) int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.sessions[session]
	if s == nil {
		s = &breakerSession{state: BreakerClosed}
		b.sessions[session] = s
	}
	page := sloState == SLOStatePage
	warn := sloState == SLOStateWarn

	switch s.state {
	case BreakerClosed:
		switch {
		case page:
			b.trip(s, BreakerOpen)
		case warn:
			b.trip(s, BreakerDegraded)
		}
	case BreakerDegraded:
		switch {
		case page:
			b.trip(s, BreakerOpen)
		case warn:
			s.streak = 0
		default:
			if s.streak++; s.streak >= b.cfg.RecoverySlots {
				b.trip(s, BreakerClosed)
			}
		}
	case BreakerOpen:
		// Recovery keys on "not paging" rather than "fully ok": the SLO's
		// long window drags warn for a while after a fault clears, and
		// waiting it out would hold quality down long past the fault.
		if page {
			s.streak = 0
		} else if s.streak++; s.streak >= b.cfg.RecoverySlots {
			b.trip(s, BreakerHalfOpen)
		}
	case BreakerHalfOpen:
		if page {
			b.trip(s, BreakerOpen)
		} else if s.streak++; s.streak >= b.cfg.HalfOpenSlots {
			b.trip(s, BreakerClosed)
		}
	}
	return b.capOf(s)
}

// trip moves a session to a new state (b.mu held).
func (b *Breaker) trip(s *breakerSession, state string) {
	s.state = state
	s.streak = 0
	switch state {
	case BreakerOpen:
		b.cOpened.Inc()
	case BreakerDegraded:
		b.cDegraded.Inc()
	case BreakerClosed:
		b.cClosed.Inc()
	}
}

// Cap returns the session's current quality ceiling, 0 meaning uncapped.
func (b *Breaker) Cap(session uint32) int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capOf(b.sessions[session])
}

// capOf is the ceiling of a session in s's state, 0 for an unknown session
// (b.mu held).
func (b *Breaker) capOf(s *breakerSession) int {
	if s == nil {
		return 0
	}
	switch s.state {
	case BreakerDegraded:
		return b.cfg.WarnCap
	case BreakerOpen:
		return b.cfg.PageCap
	case BreakerHalfOpen:
		return b.cfg.HalfOpenCap
	}
	return 0
}

// State returns the session's breaker state ("" when unknown).
func (b *Breaker) State(session uint32) string {
	if b == nil {
		return ""
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if s := b.sessions[session]; s != nil {
		return s.state
	}
	return ""
}

// Retire drops a departed session's breaker.
func (b *Breaker) Retire(session uint32) {
	if b == nil {
		return
	}
	b.mu.Lock()
	delete(b.sessions, session)
	b.mu.Unlock()
}

// Counts returns how many sessions sit in each state and refreshes the
// mirrored gauges.
func (b *Breaker) Counts() (closed, degraded, open, halfOpen int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	for _, s := range b.sessions {
		switch s.state {
		case BreakerDegraded:
			degraded++
		case BreakerOpen:
			open++
		case BreakerHalfOpen:
			halfOpen++
		default:
			closed++
		}
	}
	b.mu.Unlock()
	b.gOpen.Set(float64(open))
	b.gDegraded.Set(float64(degraded))
	return
}

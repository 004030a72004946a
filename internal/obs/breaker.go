package obs

import "sync"

// Breaker states. A session's breaker degrades quality before the system
// ever considers dropping the session: the paper's QoE model values presence
// (FoV coverage) over fidelity, so a struggling session is pinned to a lower
// q_n ceiling until its SLO position recovers.
const (
	breakerClosed   = "closed"    // healthy: allocation uncapped
	breakerDegraded = "degraded"  // SLO warn: quality capped one level below the top
	breakerOpen     = "open"      // SLO page: quality capped at pageCap
	breakerHalfOpen = "half-open" // probing recovery at the degraded ceiling
)

// pageCap is the ceiling in the open state: the lowest quality, but never
// zero — coverage is preserved, fidelity is sacrificed.
const pageCap = 1

// BreakerConfig tunes the per-session circuit breaker driven by the SLO
// monitor's alert states. All windows are counted in display slots.
type BreakerConfig struct {
	// Levels is the quality ladder size (default 5, the paper's 1..5). The
	// degraded and half-open ceiling is Levels-1 (at least 1).
	Levels int
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

// BreakerEntry is one session's breaker state machine, and the session's
// handle as SLOEntry is: take it once with Breaker.Entry and pass it to
// ObserveEntry, which takes only the entry's own lock. It is valid until
// Retire of the session.
type BreakerEntry struct {
	mu     sync.Mutex
	state  string
	streak int // consecutive recovery-qualifying slots in the current state
}

// Breaker is the per-session quality circuit breaker. Feed it the SLO
// monitor's alert state once per display slot via Observe; read the current
// quality ceiling via Cap. A nil *Breaker is the disabled breaker: every
// method is a no-op and Cap reports "uncapped".
type Breaker struct {
	cfg BreakerConfig

	// mu guards the session map, the free list and the chunk; each entry's
	// state is behind the entry's own lock. Whoever takes both takes mu
	// first.
	mu       sync.Mutex
	sessions map[uint32]*BreakerEntry
	// free holds retired sessions' entries for the next new session to
	// reuse, last retired first.
	free []*BreakerEntry
	// chunk is the current chunk's entries not yet handed out.
	chunk []BreakerEntry

	cOpened, cDegraded, cClosed *Counter
	gOpen, gDegraded            *Gauge
}

// NewBreaker builds a breaker. Zero-valued config fields take the defaults;
// reg may be nil (no metrics mirroring).
func NewBreaker(cfg BreakerConfig, reg *Registry) *Breaker {
	cfg.fill()
	return &Breaker{
		cfg:       cfg,
		sessions:  make(map[uint32]*BreakerEntry),
		cOpened:   reg.Counter("collabvr_breaker_open_transitions_total"),
		cDegraded: reg.Counter("collabvr_breaker_degraded_transitions_total"),
		cClosed:   reg.Counter("collabvr_breaker_close_transitions_total"),
		gOpen:     reg.Gauge("collabvr_breaker_sessions_open"),
		gDegraded: reg.Gauge("collabvr_breaker_sessions_degraded"),
	}
}

// config returns the effective (default-filled) configuration.
func (b *Breaker) config() BreakerConfig {
	if b == nil {
		return BreakerConfig{}
	}
	return b.cfg
}

// Entry returns the session's entry, creating it closed on first use: a
// retired session's when there is one, else the next of the current chunk.
// It returns nil from the disabled breaker.
func (b *Breaker) Entry(session uint32) *BreakerEntry {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.sessions[session]
	if s == nil {
		if n := len(b.free); n > 0 {
			s = b.free[n-1]
			b.free = b.free[:n-1]
		} else {
			if len(b.chunk) == 0 {
				b.chunk = make([]BreakerEntry, entryChunk)
			}
			s = &b.chunk[0]
			b.chunk = b.chunk[1:]
		}
		*s = BreakerEntry{state: breakerClosed}
		b.sessions[session] = s
	}
	return s
}

// Observe folds one slot's SLO alert state ("ok"/"warn"/"page"; "" is
// treated as ok) into the session's breaker. Call once per display slot. It
// is ObserveEntry on the session's Entry.
func (b *Breaker) Observe(session uint32, sloState string) int {
	return b.ObserveEntry(b.Entry(session), sloState)
}

// ObserveEntry folds one slot's SLO alert state into s, an entry from
// Entry, as Observe describes. It returns the session's quality ceiling
// after the slot, what Cap would report (0: uncapped, and always from the
// disabled breaker). It takes only the entry's lock and the transition
// counters are atomic, so distinct sessions may observe concurrently.
func (b *Breaker) ObserveEntry(s *BreakerEntry, sloState string) int {
	if b == nil {
		return 0
	}
	page := sloState == SLOStatePage
	warn := sloState == SLOStateWarn
	s.mu.Lock()
	defer s.mu.Unlock()

	switch s.state {
	case breakerClosed:
		switch {
		case page:
			b.trip(s, breakerOpen)
		case warn:
			b.trip(s, breakerDegraded)
		}
	case breakerDegraded:
		switch {
		case page:
			b.trip(s, breakerOpen)
		case warn:
			s.streak = 0
		default:
			if s.streak++; s.streak >= b.cfg.RecoverySlots {
				b.trip(s, breakerClosed)
			}
		}
	case breakerOpen:
		// Recovery keys on "not paging" rather than "fully ok": the SLO's
		// long window drags warn for a while after a fault clears, and
		// waiting it out would hold quality down long past the fault.
		if page {
			s.streak = 0
		} else if s.streak++; s.streak >= b.cfg.RecoverySlots {
			b.trip(s, breakerHalfOpen)
		}
	case breakerHalfOpen:
		if page {
			b.trip(s, breakerOpen)
		} else if s.streak++; s.streak >= b.cfg.HalfOpenSlots {
			b.trip(s, breakerClosed)
		}
	}
	return b.capOf(s)
}

// trip moves a session to a new state (s.mu held).
func (b *Breaker) trip(s *BreakerEntry, state string) {
	s.state = state
	s.streak = 0
	switch state {
	case breakerOpen:
		b.cOpened.Inc()
	case breakerDegraded:
		b.cDegraded.Inc()
	case breakerClosed:
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
	s := b.sessions[session]
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return b.capOf(s)
}

// capOf is the ceiling of a session in e's state (s.mu held).
func (b *Breaker) capOf(s *BreakerEntry) int {
	switch s.state {
	case breakerDegraded, breakerHalfOpen:
		return max(b.cfg.Levels-1, 1)
	case breakerOpen:
		return pageCap
	}
	return 0
}

// state returns the session's breaker state ("" when unknown).
func (b *Breaker) state(session uint32) string {
	if b == nil {
		return ""
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.sessions[session]
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Retire drops a departed session's breaker and keeps its entry for the
// next session the breaker sees. The session's handle is void from here.
func (b *Breaker) Retire(session uint32) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if s := b.sessions[session]; s != nil {
		delete(b.sessions, session)
		b.free = append(b.free, s)
	}
	b.mu.Unlock()
}

// counts returns how many sessions sit in each state and refreshes the
// mirrored gauges.
func (b *Breaker) counts() (closed, degraded, open, halfOpen int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	for _, s := range b.sessions {
		s.mu.Lock()
		state := s.state
		s.mu.Unlock()
		switch state {
		case breakerDegraded:
			degraded++
		case breakerOpen:
			open++
		case breakerHalfOpen:
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

package obs

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestBreakerLifecycle(t *testing.T) {
	reg := NewRegistry()
	b := NewBreaker(BreakerConfig{Levels: 5, RecoverySlots: 10, HalfOpenSlots: 4}, reg)
	const sess = 7

	if b.Cap(sess) != 0 || b.state(sess) != "" {
		t.Fatal("unknown session should be uncapped")
	}
	b.Observe(sess, SLOStateOK)
	if got := b.state(sess); got != breakerClosed {
		t.Fatalf("state = %q, want closed", got)
	}

	// warn -> degraded, capped at Levels-1.
	b.Observe(sess, SLOStateWarn)
	if b.state(sess) != breakerDegraded || b.Cap(sess) != 4 {
		t.Fatalf("after warn: state=%q cap=%d, want degraded/4", b.state(sess), b.Cap(sess))
	}

	// page -> open, capped at 1.
	b.Observe(sess, SLOStatePage)
	if b.state(sess) != breakerOpen || b.Cap(sess) != 1 {
		t.Fatalf("after page: state=%q cap=%d, want open/1", b.state(sess), b.Cap(sess))
	}

	// Recovery keys on non-page slots: warn slots count toward it, and an
	// intervening page resets the streak.
	for i := 0; i < 9; i++ {
		b.Observe(sess, SLOStateWarn)
	}
	b.Observe(sess, SLOStatePage)
	for i := 0; i < 9; i++ {
		b.Observe(sess, SLOStateOK)
	}
	if b.state(sess) != breakerOpen {
		t.Fatalf("recovered too early after streak reset: %q", b.state(sess))
	}
	b.Observe(sess, SLOStateOK)
	if b.state(sess) != breakerHalfOpen || b.Cap(sess) != 4 {
		t.Fatalf("after recovery streak: state=%q cap=%d, want half-open/4", b.state(sess), b.Cap(sess))
	}

	// A page during the probe re-opens.
	b.Observe(sess, SLOStatePage)
	if b.state(sess) != breakerOpen {
		t.Fatalf("half-open page should re-open, got %q", b.state(sess))
	}
	for i := 0; i < 10; i++ {
		b.Observe(sess, SLOStateOK)
	}
	for i := 0; i < 4; i++ {
		b.Observe(sess, SLOStateOK)
	}
	if b.state(sess) != breakerClosed || b.Cap(sess) != 0 {
		t.Fatalf("after probe survival: state=%q cap=%d, want closed/0", b.state(sess), b.Cap(sess))
	}

	if got := reg.Counter("collabvr_breaker_open_transitions_total").Value(); got != 2 {
		t.Errorf("open transitions = %d, want 2", got)
	}

	b.Retire(sess)
	if b.state(sess) != "" {
		t.Fatal("retired session still tracked")
	}
}

// TestBreakerRetireReuse: a new session's breaker entry is a retired
// session's, and it starts closed whatever the old one left. The same SLO
// state sequence on the recycled entry and on a fresh breaker returns the
// same caps and states every slot, moves the transition counters by the
// same amounts and ends in the same counts.
func TestBreakerRetireReuse(t *testing.T) {
	cfg := BreakerConfig{Levels: 5, RecoverySlots: 10, HalfOpenSlots: 4}
	// script walks a breaker through degraded, open, half-open, open again
	// and closed.
	script := func(i int) string {
		switch {
		case i%70 < 5:
			return SLOStateWarn
		case i%70 < 8, i%70 == 25:
			return SLOStatePage
		}
		return SLOStateOK
	}
	type run struct {
		caps                  []int
		states                []string
		opened, degr, closed  uint64
		nClosed, nDegr, nOpen int
		nHalf                 int
	}
	counters := func(reg *Registry) (uint64, uint64, uint64) {
		return reg.Counter("collabvr_breaker_open_transitions_total").Value(),
			reg.Counter("collabvr_breaker_degraded_transitions_total").Value(),
			reg.Counter("collabvr_breaker_close_transitions_total").Value()
	}
	observe := func(b *Breaker, reg *Registry, id uint32, slots int) run {
		o0, d0, c0 := counters(reg)
		var r run
		for i := 0; i < slots; i++ {
			r.caps = append(r.caps, b.Observe(id, script(i)))
			r.states = append(r.states, b.state(id))
		}
		o1, d1, c1 := counters(reg)
		r.opened, r.degr, r.closed = o1-o0, d1-d0, c1-c0
		r.nClosed, r.nDegr, r.nOpen, r.nHalf = b.counts()
		return r
	}

	freshReg := NewRegistry()
	fresh := observe(NewBreaker(cfg, freshReg), freshReg, 2, 300)
	if fresh.opened < 2 || fresh.degr == 0 || fresh.closed == 0 {
		t.Fatalf("script too tame: %d opens, %d degrades, %d closes", fresh.opened, fresh.degr, fresh.closed)
	}

	reg := NewRegistry()
	b := NewBreaker(cfg, reg)
	// Leave session 1 open with a recovery streak under way.
	observe(b, reg, 1, 12)
	if b.state(1) != breakerOpen {
		t.Fatalf("session 1 is %q before retiring, want open", b.state(1))
	}
	old := b.sessions[1]
	b.Retire(1)
	recycled := observe(b, reg, 2, 300)
	if b.sessions[2] != old {
		t.Fatal("session 2 did not reuse session 1's retired entry")
	}
	if !reflect.DeepEqual(recycled, fresh) {
		t.Fatalf("recycled entry diverges from a fresh breaker:\n  recycled %+v\n  fresh    %+v", recycled, fresh)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		b.Retire(2)
		b.Observe(3, SLOStateOK)
		b.Retire(3)
		b.Observe(2, SLOStateOK)
	}); allocs != 0 {
		t.Errorf("retire and re-observe allocates %v times, want 0", allocs)
	}

	// Under churn on four goroutines the breakers end where one goroutine
	// leaves them; make race runs this under the detector at -cpu 1,2,4.
	serial := observeChurn(1, false)
	if serial.opened == 0 || serial.closed == 0 {
		t.Fatalf("churn script too tame: %d breaker opens, %d closes", serial.opened, serial.closed)
	}
	got := observeChurn(4, false)
	if !reflect.DeepEqual(got.breakerStates, serial.breakerStates) || !reflect.DeepEqual(got.caps, serial.caps) ||
		got.opened != serial.opened || got.degr != serial.degr || got.closed != serial.closed ||
		got.nClosed != serial.nClosed || got.nDegr != serial.nDegr || got.nOpen != serial.nOpen || got.nHalf != serial.nHalf {
		t.Fatalf("four goroutines under churn:\n  %+v\none goroutine:\n  %+v", got, serial)
	}
	if got.brkEntries > 16 {
		t.Errorf("%d breaker entries for 16 concurrent sessions: retired ones were not reused", got.brkEntries)
	}
}

func TestBreakerDegradedRecoversOnOKStreak(t *testing.T) {
	b := NewBreaker(BreakerConfig{Levels: 5, RecoverySlots: 5}, nil)
	b.Observe(1, SLOStateWarn)
	// A warn mid-streak resets the ok count.
	b.Observe(1, SLOStateOK)
	b.Observe(1, SLOStateOK)
	b.Observe(1, SLOStateWarn)
	for i := 0; i < 4; i++ {
		b.Observe(1, SLOStateOK)
	}
	if b.state(1) != breakerDegraded {
		t.Fatalf("closed before the ok streak completed: %q", b.state(1))
	}
	b.Observe(1, SLOStateOK)
	if b.state(1) != breakerClosed {
		t.Fatalf("state = %q, want closed after 5 consecutive ok slots", b.state(1))
	}
	closed, degraded, open, half := b.counts()
	if closed != 1 || degraded != 0 || open != 0 || half != 0 {
		t.Fatalf("Counts = %d/%d/%d/%d, want 1/0/0/0", closed, degraded, open, half)
	}
}

func TestBreakerConfigFillAndNil(t *testing.T) {
	var cfg BreakerConfig
	cfg.fill()
	if cfg.Levels != 5 || cfg.RecoverySlots != 300 || cfg.HalfOpenSlots != 150 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	// The ceilings derive from Levels: degraded and half-open one level
	// below the top, open at the lowest level.
	caps := func(b *Breaker) (warn, page, halfOpen int) {
		return b.capOf(&BreakerEntry{state: breakerDegraded}), b.capOf(&BreakerEntry{state: breakerOpen}),
			b.capOf(&BreakerEntry{state: breakerHalfOpen})
	}
	if w, p, h := caps(NewBreaker(BreakerConfig{}, nil)); w != 4 || p != 1 || h != 4 {
		t.Fatalf("default caps = %d/%d/%d, want 4/1/4", w, p, h)
	}
	if w, p, h := caps(NewBreaker(BreakerConfig{Levels: 1}, nil)); w != 1 || p != 1 || h != 1 {
		t.Fatalf("single-level ladder caps = %d/%d/%d, want 1/1/1", w, p, h)
	}

	var b *Breaker
	b.Observe(1, SLOStatePage)
	if b.Cap(1) != 0 || b.state(1) != "" {
		t.Fatal("nil breaker capped a session")
	}
	b.Retire(1)
	if c, d, o, h := b.counts(); c+d+o+h != 0 {
		t.Fatal("nil breaker counted sessions")
	}
	if b.config() != (BreakerConfig{}) {
		t.Fatal("nil breaker returned a config")
	}
}

// TestObserveReturnsWhatLookupsReport: the engines feed the breaker
// ObserveSlot's return and clamp with Observe's, in place of State and Cap
// lookups, so the returns must be those lookups' answers after every slot —
// through each of the monitor's states and each of the breaker's transitions.
// The disabled (nil) monitor and breaker return "" and 0.
func TestObserveReturnsWhatLookupsReport(t *testing.T) {
	m := sloForTest()
	seen := map[string]bool{}
	for i := 0; i < 400; i++ {
		// Healthy, then a miss burst that pages, a trickle that only warns,
		// and healthy again.
		displayed := i < 100 || (i >= 140 && i%8 != 0) || i >= 300
		st := m.ObserveSlot(1, displayed, 3)
		if want := m.State(1); st != want {
			t.Fatalf("slot %d: ObserveSlot returned %q, State reports %q", i, st, want)
		}
		seen[st] = true
	}
	for _, st := range []string{SLOStateOK, SLOStateWarn, SLOStatePage} {
		if !seen[st] {
			t.Errorf("the monitor never reached %q (saw %v)", st, seen)
		}
	}

	b := NewBreaker(BreakerConfig{Levels: 5, RecoverySlots: 4, HalfOpenSlots: 2}, nil)
	type move struct{ from, to string }
	moves := map[move]bool{}
	from := ""
	feed := func(st string, n int) {
		for i := 0; i < n; i++ {
			c := b.Observe(2, st)
			if want := b.Cap(2); c != want {
				t.Fatalf("after %q in %s: Observe returned cap %d, Cap reports %d", st, from, c, want)
			}
			to := b.state(2)
			moves[move{from, to}] = true
			from = to
		}
	}
	feed(SLOStateOK, 1)
	feed(SLOStateWarn, 1) // closed -> degraded
	feed(SLOStateOK, 4)   // degraded -> closed
	feed(SLOStatePage, 1) // closed -> open
	feed(SLOStateOK, 4)   // open -> half-open
	feed(SLOStatePage, 1) // half-open -> open
	feed(SLOStateWarn, 4) // open -> half-open (not paging is enough)
	feed(SLOStateOK, 2)   // half-open -> closed
	feed(SLOStateWarn, 1) // closed -> degraded
	feed(SLOStatePage, 1) // degraded -> open
	for _, mv := range []move{
		{breakerClosed, breakerDegraded}, {breakerDegraded, breakerClosed},
		{breakerClosed, breakerOpen}, {breakerOpen, breakerHalfOpen},
		{breakerHalfOpen, breakerOpen}, {breakerHalfOpen, breakerClosed},
		{breakerDegraded, breakerOpen},
	} {
		if !moves[mv] {
			t.Errorf("transition %s -> %s never happened", mv.from, mv.to)
		}
	}

	var nilSLO *SLOMonitor
	var nilBreaker *Breaker
	if st := nilSLO.ObserveSlot(1, false, 0); st != "" {
		t.Errorf("nil monitor returned %q", st)
	}
	if c := nilBreaker.Observe(1, SLOStatePage); c != 0 {
		t.Errorf("nil breaker returned cap %d", c)
	}
}

// TestMonitorConcurrentObserve: the fleet engine observes each session from
// the slot's build loop or its shard's solve, concurrently with the others. The
// monitor and the breaker keep per-session state behind their locks and count
// transitions atomically, so four goroutines on disjoint sessions must end
// with the states, windows and counters one goroutine leaves. make race runs
// it under the detector at -count=10 -cpu 1,2,4.
func TestMonitorConcurrentObserve(t *testing.T) {
	const sessions, slots, workers = 32, 600, 4
	// displayed is session id's scripted outcome at slot i: healthy stretches
	// and miss bursts whose lengths vary by session, so the sessions page,
	// warn and recover at different slots.
	displayed := func(id uint32, i int) bool {
		phase := (i + int(id)*37) % 200
		return phase < 120 || (phase < 160 && phase%int(2+id%5) != 0)
	}
	type result struct {
		slo                    SLOSnapshot
		states                 []string
		caps                   []int
		warn, page, open, degr uint64
		closed                 uint64
		nClosed, nDegr, nOpen  int
		nHalf                  int
	}
	run := func(goroutines int) result {
		reg := NewRegistry()
		m := NewSLOMonitor(SLOConfig{WindowSlots: 120, ShortWindowSlots: 30}, reg)
		b := NewBreaker(BreakerConfig{Levels: 6, RecoverySlots: 40}, reg)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < slots; i++ {
					for id := uint32(g); id < sessions; id += uint32(goroutines) {
						ok := displayed(id, i)
						q := float64(1 + (i+int(id))%6)
						if !ok {
							q = 0
						}
						b.Observe(id, m.ObserveSlot(id, ok, q))
					}
				}
			}(g)
		}
		wg.Wait()
		r := result{slo: m.Snapshot()}
		for id := uint32(0); id < sessions; id++ {
			r.states = append(r.states, m.State(id)+"/"+b.state(id))
			r.caps = append(r.caps, b.Cap(id))
		}
		r.warn = reg.Counter("collabvr_slo_warn_transitions_total").Value()
		r.page = reg.Counter("collabvr_slo_page_transitions_total").Value()
		r.open = reg.Counter("collabvr_breaker_open_transitions_total").Value()
		r.degr = reg.Counter("collabvr_breaker_degraded_transitions_total").Value()
		r.closed = reg.Counter("collabvr_breaker_close_transitions_total").Value()
		r.nClosed, r.nDegr, r.nOpen, r.nHalf = b.counts()
		return r
	}
	serial := run(1)
	t.Logf("one goroutine: %d warn and %d page transitions; breaker %d opens, %d degrades, %d closes",
		serial.warn, serial.page, serial.open, serial.degr, serial.closed)
	if serial.page == 0 || serial.warn == 0 || serial.open == 0 || serial.closed == 0 {
		t.Fatalf("script too tame: %d warn and %d page transitions, %d breaker opens, %d closes",
			serial.warn, serial.page, serial.open, serial.closed)
	}
	if got := run(workers); !reflect.DeepEqual(got, serial) {
		t.Errorf("%d goroutines ended differently from one:\n got %+v\nwant %+v", workers, got, serial)
	}
}

// churnResult is what observeChurn leaves in the monitor and the breaker.
type churnResult struct {
	slo                    SLOSnapshot
	sloStates              []string
	breakerStates          []string
	caps                   []int
	warn, page             uint64
	opened, degr, closed   uint64
	nClosed, nDegr, nOpen  int
	nHalf                  int
	sloEntries, brkEntries int // sessions kept plus free entries
}

// observeChurn feeds one monitor and one breaker from goroutines on disjoint
// sessions, as the fleet engine's build loop does, while sessions depart and
// new ones take their place: lane l hosts session l+16k in its k-th life,
// and on leaving a session is retired from both, so every new session may
// take any goroutine's retired entry. Which one it takes depends on the
// interleaving; what it observes must not. With handles each lane takes
// its session's entries at the first observation and observes through
// them, as the fleet engine does, instead of through the keyed calls. A
// reader goroutine calls Snapshot, Totals, State, Cap and Counts
// throughout, as a /metrics scrape or the health sampler would.
func observeChurn(goroutines int, handles bool) churnResult {
	const lanes, slots = 16, 480
	reg := NewRegistry()
	m := NewSLOMonitor(SLOConfig{WindowSlots: 120, ShortWindowSlots: 30}, reg)
	b := NewBreaker(BreakerConfig{Levels: 6, RecoverySlots: 40}, reg)
	session := func(lane, i int) uint32 { return uint32(lane + lanes*(i/(70+3*lane))) }
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for id := uint32(0); ; id = (id + 1) % (4 * lanes) {
			select {
			case <-done:
				return
			default:
			}
			m.Snapshot()
			m.Totals()
			m.State(id)
			b.Cap(id)
			b.state(id)
			b.counts()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			slo := make([]*SLOEntry, lanes)
			brk := make([]*BreakerEntry, lanes)
			for i := 0; i < slots; i++ {
				for lane := g; lane < lanes; lane += goroutines {
					id := session(lane, i)
					if prev := session(lane, i-1); i > 0 && prev != id {
						m.Retire(prev)
						b.Retire(prev)
						slo[lane], brk[lane] = nil, nil
					}
					phase := (i + lane*37) % 200
					ok := phase < 120 || (phase < 160 && phase%(2+lane%5) != 0)
					q := float64(1 + (i+lane)%6)
					if !ok {
						q = 0
					}
					if !handles {
						b.Observe(id, m.ObserveSlot(id, ok, q))
						continue
					}
					if slo[lane] == nil {
						slo[lane], brk[lane] = m.Entry(id), b.Entry(id)
					}
					b.ObserveEntry(brk[lane], m.Observe(slo[lane], ok, q))
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	reader.Wait()
	r := churnResult{slo: m.Snapshot()}
	for lane := 0; lane < lanes; lane++ {
		id := session(lane, slots-1)
		r.sloStates = append(r.sloStates, m.State(id))
		r.breakerStates = append(r.breakerStates, b.state(id))
		r.caps = append(r.caps, b.Cap(id))
	}
	r.warn = reg.Counter("collabvr_slo_warn_transitions_total").Value()
	r.page = reg.Counter("collabvr_slo_page_transitions_total").Value()
	r.opened = reg.Counter("collabvr_breaker_open_transitions_total").Value()
	r.degr = reg.Counter("collabvr_breaker_degraded_transitions_total").Value()
	r.closed = reg.Counter("collabvr_breaker_close_transitions_total").Value()
	r.nClosed, r.nDegr, r.nOpen, r.nHalf = b.counts()
	r.sloEntries, r.brkEntries = len(m.sessions)+len(m.free), len(b.sessions)+len(b.free)
	return r
}

// TestHandleChurnMatchesKeyed: sessions observing through their handles on
// four goroutines, retiring and taking entries as they churn, with a reader
// scraping throughout, end where one goroutine on the keyed calls leaves
// them. make race runs it under the detector at -count=10 -cpu 1,2,4.
func TestHandleChurnMatchesKeyed(t *testing.T) {
	keyed := observeChurn(1, false)
	if keyed.page == 0 || keyed.opened == 0 || keyed.closed == 0 {
		t.Fatalf("churn script too tame: %d page transitions, %d breaker opens, %d closes", keyed.page, keyed.opened, keyed.closed)
	}
	for _, goroutines := range []int{1, 2, 4} {
		if got := observeChurn(goroutines, true); !reflect.DeepEqual(got, keyed) {
			t.Errorf("handles on %d goroutines under churn:\n  %+v\nkeyed on one goroutine:\n  %+v", goroutines, got, keyed)
		}
	}
}

// TestHandleMatchesKeyed: one random sequence of observations and
// retirements, fed once through the keyed calls and once through per-session
// handles (taken at a session's first observation, dropped at its
// retirement), leaves equal states, caps, snapshots, counts and transition
// counters after every step.
func TestHandleMatchesKeyed(t *testing.T) {
	type side struct {
		reg *Registry
		m   *SLOMonitor
		b   *Breaker
	}
	mk := func() side {
		reg := NewRegistry()
		return side{reg,
			NewSLOMonitor(SLOConfig{WindowSlots: 40, ShortWindowSlots: 8}, reg),
			NewBreaker(BreakerConfig{Levels: 5, RecoverySlots: 12}, reg)}
	}
	keyed, handled := mk(), mk()
	slo := map[uint32]*SLOEntry{}
	brk := map[uint32]*BreakerEntry{}
	rng := rand.New(rand.NewSource(38))
	const sessions = 10
	for step := 0; step < 20000; step++ {
		id := uint32(rng.Intn(sessions))
		if rng.Intn(150) == 0 {
			keyed.m.Retire(id)
			keyed.b.Retire(id)
			handled.m.Retire(id)
			handled.b.Retire(id)
			delete(slo, id)
			delete(brk, id)
			continue
		}
		// Each session misses at its own rate, some often enough to page.
		displayed := rng.Intn(100) >= int(id)*4
		quality := 0.0
		if displayed {
			quality = float64(1 + rng.Intn(5))
		}
		kState := keyed.m.ObserveSlot(id, displayed, quality)
		kCap := keyed.b.Observe(id, kState)
		if slo[id] == nil {
			slo[id], brk[id] = handled.m.Entry(id), handled.b.Entry(id)
		}
		hState := handled.m.Observe(slo[id], displayed, quality)
		hCap := handled.b.ObserveEntry(brk[id], hState)
		if hState != kState || hCap != kCap || handled.b.state(id) != keyed.b.state(id) || handled.b.Cap(id) != hCap {
			t.Fatalf("step %d, session %d: handle state %q cap %d breaker %q, keyed %q cap %d breaker %q",
				step, id, hState, hCap, handled.b.state(id), kState, kCap, keyed.b.state(id))
		}
		if step%97 == 0 {
			if h, k := handled.m.Snapshot(), keyed.m.Snapshot(); !reflect.DeepEqual(h, k) {
				t.Fatalf("step %d: snapshots differ:\n  handle %+v\n  keyed  %+v", step, h, k)
			}
			var hc, kc [4]int
			hc[0], hc[1], hc[2], hc[3] = handled.b.counts()
			kc[0], kc[1], kc[2], kc[3] = keyed.b.counts()
			if hc != kc {
				t.Fatalf("step %d: breaker counts %v, keyed %v", step, hc, kc)
			}
		}
	}
	for _, name := range []string{
		"collabvr_slo_warn_transitions_total", "collabvr_slo_page_transitions_total",
		"collabvr_breaker_open_transitions_total", "collabvr_breaker_degraded_transitions_total",
		"collabvr_breaker_close_transitions_total",
	} {
		h, k := handled.reg.Counter(name).Value(), keyed.reg.Counter(name).Value()
		if h != k || k == 0 {
			t.Errorf("%s: handles %d, keyed %d (want equal and non-zero)", name, h, k)
		}
	}
}

// TestFreshEntriesComeInChunks: N fresh sessions cost the SLO monitor two
// allocations per chunk of entries (the entries and their window slab) and
// the breaker one, with the session maps already grown.
func TestFreshEntriesComeInChunks(t *testing.T) {
	const n = 200
	m := NewSLOMonitor(SLOConfig{}, nil)
	b := NewBreaker(BreakerConfig{}, nil)
	// AllocsPerRun calls the function once before it measures: room for
	// both calls' sessions.
	m.sessions, b.sessions = make(map[uint32]*SLOEntry, 2*n), make(map[uint32]*BreakerEntry, 2*n)
	next := uint32(0)
	allocs := testing.AllocsPerRun(1, func() {
		for end := next + n; next < end; next++ {
			b.Observe(next, m.ObserveSlot(next, true, 3))
		}
	})
	chunks := (n + entryChunk - 1) / entryChunk
	if want := float64(3 * chunks); allocs > want {
		t.Errorf("%d fresh sessions allocated %v times, want <= %v (%d chunks of %d)", n, allocs, want, chunks, entryChunk)
	}
}

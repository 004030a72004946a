package obs

import (
	"reflect"
	"sync"
	"testing"
)

func TestBreakerLifecycle(t *testing.T) {
	reg := NewRegistry()
	b := NewBreaker(BreakerConfig{Levels: 5, RecoverySlots: 10, HalfOpenSlots: 4}, reg)
	const sess = 7

	if b.Cap(sess) != 0 || b.State(sess) != "" {
		t.Fatal("unknown session should be uncapped")
	}
	b.Observe(sess, SLOStateOK)
	if got := b.State(sess); got != BreakerClosed {
		t.Fatalf("state = %q, want closed", got)
	}

	// warn -> degraded, capped at Levels-1.
	b.Observe(sess, SLOStateWarn)
	if b.State(sess) != BreakerDegraded || b.Cap(sess) != 4 {
		t.Fatalf("after warn: state=%q cap=%d, want degraded/4", b.State(sess), b.Cap(sess))
	}

	// page -> open, capped at 1.
	b.Observe(sess, SLOStatePage)
	if b.State(sess) != BreakerOpen || b.Cap(sess) != 1 {
		t.Fatalf("after page: state=%q cap=%d, want open/1", b.State(sess), b.Cap(sess))
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
	if b.State(sess) != BreakerOpen {
		t.Fatalf("recovered too early after streak reset: %q", b.State(sess))
	}
	b.Observe(sess, SLOStateOK)
	if b.State(sess) != BreakerHalfOpen || b.Cap(sess) != 4 {
		t.Fatalf("after recovery streak: state=%q cap=%d, want half-open/4", b.State(sess), b.Cap(sess))
	}

	// A page during the probe re-opens.
	b.Observe(sess, SLOStatePage)
	if b.State(sess) != BreakerOpen {
		t.Fatalf("half-open page should re-open, got %q", b.State(sess))
	}
	for i := 0; i < 10; i++ {
		b.Observe(sess, SLOStateOK)
	}
	for i := 0; i < 4; i++ {
		b.Observe(sess, SLOStateOK)
	}
	if b.State(sess) != BreakerClosed || b.Cap(sess) != 0 {
		t.Fatalf("after probe survival: state=%q cap=%d, want closed/0", b.State(sess), b.Cap(sess))
	}

	if got := reg.Counter("collabvr_breaker_open_transitions_total").Value(); got != 2 {
		t.Errorf("open transitions = %d, want 2", got)
	}

	b.Retire(sess)
	if b.State(sess) != "" {
		t.Fatal("retired session still tracked")
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
	if b.State(1) != BreakerDegraded {
		t.Fatalf("closed before the ok streak completed: %q", b.State(1))
	}
	b.Observe(1, SLOStateOK)
	if b.State(1) != BreakerClosed {
		t.Fatalf("state = %q, want closed after 5 consecutive ok slots", b.State(1))
	}
	closed, degraded, open, half := b.Counts()
	if closed != 1 || degraded != 0 || open != 0 || half != 0 {
		t.Fatalf("Counts = %d/%d/%d/%d, want 1/0/0/0", closed, degraded, open, half)
	}
}

func TestBreakerConfigFillAndNil(t *testing.T) {
	var cfg BreakerConfig
	cfg.fill()
	if cfg.Levels != 5 || cfg.WarnCap != 4 || cfg.PageCap != 1 ||
		cfg.HalfOpenCap != 4 || cfg.RecoverySlots != 300 || cfg.HalfOpenSlots != 150 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	single := BreakerConfig{Levels: 1}
	single.fill()
	if single.WarnCap != 1 || single.PageCap != 1 {
		t.Fatalf("single-level ladder caps wrong: %+v", single)
	}

	var b *Breaker
	b.Observe(1, SLOStatePage)
	if b.Cap(1) != 0 || b.State(1) != "" {
		t.Fatal("nil breaker capped a session")
	}
	b.Retire(1)
	if c, d, o, h := b.Counts(); c+d+o+h != 0 {
		t.Fatal("nil breaker counted sessions")
	}
	if b.Config() != (BreakerConfig{}) {
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
			to := b.State(2)
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
		{BreakerClosed, BreakerDegraded}, {BreakerDegraded, BreakerClosed},
		{BreakerClosed, BreakerOpen}, {BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerOpen}, {BreakerHalfOpen, BreakerClosed},
		{BreakerDegraded, BreakerOpen},
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

// TestMonitorConcurrentObserve: the fleet engine observes each shard's
// sessions from that shard's step, concurrently with the other shards. The
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
			r.states = append(r.states, m.State(id)+"/"+b.State(id))
			r.caps = append(r.caps, b.Cap(id))
		}
		r.warn = reg.Counter("collabvr_slo_warn_transitions_total").Value()
		r.page = reg.Counter("collabvr_slo_page_transitions_total").Value()
		r.open = reg.Counter("collabvr_breaker_open_transitions_total").Value()
		r.degr = reg.Counter("collabvr_breaker_degraded_transitions_total").Value()
		r.closed = reg.Counter("collabvr_breaker_close_transitions_total").Value()
		r.nClosed, r.nDegr, r.nOpen, r.nHalf = b.Counts()
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

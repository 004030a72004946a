package obs

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func sloForTest() *SLOMonitor {
	return NewSLOMonitor(SLOConfig{WindowSlots: 100, ShortWindowSlots: 20}, NewRegistry())
}

func TestSLOHealthySessionStaysOK(t *testing.T) {
	m := sloForTest()
	for i := 0; i < 300; i++ {
		m.ObserveSlot(1, true, 4)
	}
	if got := m.State(1); got != SLOStateOK {
		t.Fatalf("healthy session state = %q", got)
	}
	snap := m.Snapshot()
	if snap.OK != 1 || snap.Warn != 0 || snap.Page != 0 {
		t.Errorf("snapshot counts = %+v", snap)
	}
	s := snap.Sessions[0]
	if s.MissRate != 0 || s.MeanQuality != 4 || s.QualityLow {
		t.Errorf("session state = %+v", s)
	}
	if s.Slots != 100 {
		t.Errorf("window fill = %d, want capped at 100", s.Slots)
	}
}

func TestSLOAllMissesPages(t *testing.T) {
	m := sloForTest()
	for i := 0; i < 50; i++ {
		m.ObserveSlot(7, false, 0)
	}
	if got := m.State(7); got != SLOStatePage {
		t.Fatalf("all-miss session state = %q", got)
	}
	snap := m.Snapshot()
	if snap.Page != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	s := snap.Sessions[0]
	if s.MissRate != 1 {
		t.Errorf("miss rate = %v", s.MissRate)
	}
	// Burn = rate/target = 1/0.02 = 50x.
	if s.MissBurn != 50 {
		t.Errorf("miss burn = %v", s.MissBurn)
	}
	// Every miss after the first is a stall (consecutive misses).
	if s.StallRate != 49.0/50 {
		t.Errorf("stall rate = %v", s.StallRate)
	}
	reg := m.reg
	if reg.Gauge("collabvr_slo_sessions_page").Value() != 1 {
		t.Error("page gauge not mirrored")
	}
	if reg.Counter("collabvr_slo_page_transitions_total").Value() == 0 {
		t.Error("page transition not counted")
	}
}

func TestSLOAlertGatedUntilShortWindowFills(t *testing.T) {
	m := sloForTest()
	for i := 0; i < 19; i++ { // one short of the 20-slot short window
		m.ObserveSlot(3, false, 0)
	}
	if got := m.State(3); got != SLOStateOK {
		t.Fatalf("state before window fill = %q", got)
	}
	m.ObserveSlot(3, false, 0)
	if got := m.State(3); got != SLOStatePage {
		t.Fatalf("state after window fill = %q", got)
	}
}

func TestSLOIsolatedMissesWarnNotPage(t *testing.T) {
	// 10% miss rate (burn 5x: above SlowBurn 3, below FastBurn 10), spread
	// out so no two misses are consecutive (no stalls).
	m := sloForTest()
	for i := 0; i < 200; i++ {
		m.ObserveSlot(2, i%10 != 0, 3)
	}
	if got := m.State(2); got != SLOStateWarn {
		t.Fatalf("10%% miss session state = %q", got)
	}
	snap := m.Snapshot()
	if s := snap.Sessions[0]; s.StallRate != 0 {
		t.Errorf("isolated misses counted as stalls: %+v", s)
	}
}

func TestSLORecoveryReturnsToOK(t *testing.T) {
	m := sloForTest()
	for i := 0; i < 30; i++ {
		m.ObserveSlot(5, false, 0)
	}
	if m.State(5) != SLOStatePage {
		t.Fatal("not paging during the outage")
	}
	// Recover: the misses age out of the 100-slot window.
	for i := 0; i < 200; i++ {
		m.ObserveSlot(5, true, 4)
	}
	if got := m.State(5); got != SLOStateOK {
		t.Fatalf("state after recovery = %q", got)
	}
}

func TestSLOQualityBreachFlag(t *testing.T) {
	m := sloForTest()
	for i := 0; i < 50; i++ {
		m.ObserveSlot(9, true, 1) // displayed, but at the lowest level
	}
	snap := m.Snapshot()
	s := snap.Sessions[0]
	if !s.QualityLow || s.MeanQuality != 1 {
		t.Errorf("low-quality session = %+v", s)
	}
	if s.State != SLOStateOK {
		t.Errorf("quality breach must not page by itself: %q", s.State)
	}
	if m.reg.Gauge("collabvr_slo_sessions_quality_breach").Value() != 1 {
		t.Error("quality-breach gauge not mirrored")
	}
}

func TestSLORetire(t *testing.T) {
	m := sloForTest()
	m.ObserveSlot(1, true, 3)
	m.ObserveSlot(2, true, 3)
	m.Retire(1)
	snap := m.Snapshot()
	if len(snap.Sessions) != 1 || snap.Sessions[0].Session != 2 {
		t.Errorf("sessions after retire = %+v", snap.Sessions)
	}
	if m.State(1) != "" {
		t.Error("retired session still has a state")
	}
}

// TestSLORetireReuse: a new session's window is a retired session's,
// cleared, and nothing of the old session shows through it. The same
// observe sequence on the recycled entry and on a fresh monitor returns the
// same state every slot, moves the transition counters by the same amounts
// and ends in the same snapshot.
func TestSLORetireReuse(t *testing.T) {
	// script is session id's outcome at slot i. Session 1 misses every
	// frame. Session 2 opens with a miss burst that pages, recovers, then
	// warns on isolated misses.
	script := func(id uint32, i int) (bool, float64) {
		phase := (i + 40) % 160
		switch {
		case id == 1:
			return false, 0
		case phase >= 40 && phase < 70:
			return false, 0
		case phase >= 110 && phase%9 == 0:
			return false, 0
		}
		return true, float64(1 + (i+int(id))%5)
	}
	type run struct {
		states     []string
		windows    []sloSessionState // the session's snapshot row after each slot
		warn, page uint64
		snap       SLOSnapshot
	}
	observe := func(m *SLOMonitor, reg *Registry, id uint32, slots int) run {
		warn0 := reg.Counter("collabvr_slo_warn_transitions_total").Value()
		page0 := reg.Counter("collabvr_slo_page_transitions_total").Value()
		var r run
		for i := 0; i < slots; i++ {
			displayed, quality := script(id, i)
			r.states = append(r.states, m.ObserveSlot(id, displayed, quality))
			r.windows = append(r.windows, m.Snapshot().Sessions[0])
		}
		r.warn = reg.Counter("collabvr_slo_warn_transitions_total").Value() - warn0
		r.page = reg.Counter("collabvr_slo_page_transitions_total").Value() - page0
		r.snap = m.Snapshot()
		return r
	}

	freshReg := NewRegistry()
	fresh := observe(NewSLOMonitor(SLOConfig{WindowSlots: 100, ShortWindowSlots: 20}, freshReg), freshReg, 2, 400)
	if fresh.page == 0 || fresh.warn == 0 {
		t.Fatalf("script too tame: %d warn and %d page transitions", fresh.warn, fresh.page)
	}

	reg := NewRegistry()
	m := NewSLOMonitor(SLOConfig{WindowSlots: 100, ShortWindowSlots: 20}, reg)
	// Leave session 1 mid-burst: misses and stalls in both windows, the
	// last frame missed, and the page state.
	observe(m, reg, 1, 60)
	if m.State(1) != SLOStatePage {
		t.Fatalf("session 1 is %q before retiring, want page", m.State(1))
	}
	old := m.sessions[1]
	m.Retire(1)
	if len(m.Snapshot().Sessions) != 0 {
		t.Fatal("a retired session is still in the snapshot")
	}
	recycled := observe(m, reg, 2, 400)
	if m.sessions[2] != old {
		t.Fatal("session 2 did not reuse session 1's retired window")
	}
	if !reflect.DeepEqual(recycled, fresh) {
		t.Fatalf("recycled window diverges from a fresh monitor:\n  recycled %+v\n  fresh    %+v", recycled, fresh)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		m.Retire(2)
		m.ObserveSlot(3, true, 3)
		m.Retire(3)
		m.ObserveSlot(2, true, 3)
	}); allocs != 0 {
		t.Errorf("retire and re-observe allocates %v times, want 0", allocs)
	}

	// Under churn on four goroutines the windows end where one goroutine
	// leaves them; make race runs this under the detector at -cpu 1,2,4.
	serial := observeChurn(1, false)
	if serial.page == 0 || serial.warn == 0 {
		t.Fatalf("churn script too tame: %d warn and %d page transitions", serial.warn, serial.page)
	}
	got := observeChurn(4, false)
	if !reflect.DeepEqual(got.slo, serial.slo) || !reflect.DeepEqual(got.sloStates, serial.sloStates) ||
		got.warn != serial.warn || got.page != serial.page {
		t.Fatalf("four goroutines under churn:\n  %+v\none goroutine:\n  %+v", got, serial)
	}
	if got.sloEntries > 16 {
		t.Errorf("%d SLO windows for 16 concurrent sessions: retired ones were not reused", got.sloEntries)
	}
}

// TestSLOEmptyWindow: a monitor that has observed nothing must report an
// empty snapshot and zeroed gauges, not divide by an empty window.
func TestSLOEmptyWindow(t *testing.T) {
	m := sloForTest()
	snap := m.Snapshot()
	if len(snap.Sessions) != 0 || snap.OK != 0 || snap.Warn != 0 || snap.Page != 0 {
		t.Fatalf("empty snapshot = %+v", snap)
	}
	if snap.WorstMissBurn != 0 {
		t.Fatalf("worst burn = %v on no data", snap.WorstMissBurn)
	}
	if m.State(1) != "" {
		t.Fatal("unobserved session has a state")
	}
	if v := m.reg.Gauge("collabvr_slo_sessions_ok").Value(); v != 0 {
		t.Fatalf("ok gauge = %v", v)
	}
}

// TestSLOSingleSampleWindow: with WindowSlots == ShortWindowSlots == 1 the
// alert gate opens on the first observation, so a lone miss pages and a
// lone hit recovers — the degenerate window must not under- or over-gate.
func TestSLOSingleSampleWindow(t *testing.T) {
	m := NewSLOMonitor(SLOConfig{
		WindowSlots: 1, ShortWindowSlots: 1,
		MissTarget: 0.5, StallTarget: 1, FastBurn: 2, SlowBurn: 2,
	}, NewRegistry())
	m.ObserveSlot(1, false, 0) // burn = 1/0.5 = 2 = FastBurn on both windows
	if got := m.State(1); got != SLOStatePage {
		t.Fatalf("single miss state = %q, want page", got)
	}
	m.ObserveSlot(1, true, 4)
	if got := m.State(1); got != SLOStateOK {
		t.Fatalf("single hit state = %q, want ok", got)
	}
	if v := m.reg.Counter("collabvr_slo_page_transitions_total").Value(); v != 1 {
		t.Fatalf("page transitions = %d, want 1", v)
	}
	snap := m.Snapshot()
	if s := snap.Sessions[0]; s.Slots != 1 || s.MissRate != 0 {
		t.Fatalf("session = %+v", s)
	}
}

// TestSLOBoundaryWarnPageRecover drives one session through the exact
// threshold boundaries: a long-window burn of exactly SlowBurn must warn
// (the comparison is inclusive), exactly FastBurn on both windows must
// page, and an all-hit window must return to ok. A second session one miss
// below the warn boundary must stay ok.
func TestSLOBoundaryWarnPageRecover(t *testing.T) {
	// Long and short windows coincide, so the state is first evaluated on
	// the full 8-slot window and both burns are always equal. The window
	// size and MissTarget are picked so every burn is float64-exact
	// (k/8 divided by 0.25 is a power-of-two scaling): 6 misses = burn 3.0
	// (= SlowBurn), 8 misses = burn 4.0 (= FastBurn). StallTarget 1
	// neutralizes the stall rule for this test.
	cfg := SLOConfig{
		WindowSlots: 8, ShortWindowSlots: 8,
		MissTarget: 0.25, StallTarget: 1, FastBurn: 4, SlowBurn: 3,
	}
	m := NewSLOMonitor(cfg, NewRegistry())

	// One miss below the warn boundary: burn 2.5 < SlowBurn stays ok.
	for i := 0; i < 8; i++ {
		m.ObserveSlot(2, i >= 5, 3)
	}
	if got := m.State(2); got != SLOStateOK {
		t.Fatalf("burn 2.5 state = %q, want ok (below boundary)", got)
	}

	// Exactly at the warn boundary: 6 misses, burn 3.0.
	for i := 0; i < 8; i++ {
		m.ObserveSlot(1, i >= 6, 3)
	}
	if got := m.State(1); got != SLOStateWarn {
		t.Fatalf("burn 3.0 state = %q, want warn (inclusive boundary)", got)
	}
	if v := m.reg.Counter("collabvr_slo_warn_transitions_total").Value(); v != 1 {
		t.Fatalf("warn transitions = %d, want 1", v)
	}

	// Slide to exactly the page boundary: 8 consecutive misses fill the
	// window — burn 4.0 on both windows (passing only through warn on the
	// way, never over the page threshold early).
	for i := 0; i < 8; i++ {
		m.ObserveSlot(1, false, 0)
	}
	if got := m.State(1); got != SLOStatePage {
		t.Fatalf("burn 4.0 state = %q, want page (inclusive boundary)", got)
	}
	if v := m.reg.Counter("collabvr_slo_page_transitions_total").Value(); v != 1 {
		t.Fatalf("page transitions = %d, want 1", v)
	}

	// Recover: an all-hit window drops every burn to 0.
	for i := 0; i < 8; i++ {
		m.ObserveSlot(1, true, 4)
	}
	if got := m.State(1); got != SLOStateOK {
		t.Fatalf("recovered state = %q, want ok", got)
	}
}

func TestSLONilSafety(t *testing.T) {
	var m *SLOMonitor
	if m != nil {
		t.Fatal("nil monitor enabled")
	}
	m.ObserveSlot(1, false, 0)
	m.Retire(1)
	m.refreshGauges()
	if m.State(1) != "" || len(m.Snapshot().Sessions) != 0 {
		t.Fatal("nil monitor not inert")
	}
	// A monitor without a registry still tracks state.
	free := NewSLOMonitor(SLOConfig{WindowSlots: 10, ShortWindowSlots: 2}, nil)
	for i := 0; i < 10; i++ {
		free.ObserveSlot(1, false, 0)
	}
	if free.State(1) != SLOStatePage {
		t.Error("registry-free monitor did not page")
	}
}

func TestSLOHandlerAndMux(t *testing.T) {
	reg := NewRegistry()
	m := NewSLOMonitor(SLOConfig{WindowSlots: 50, ShortWindowSlots: 10}, reg)
	for i := 0; i < 20; i++ {
		m.ObserveSlot(4, false, 0)
	}
	mux := NewMuxOpts(reg, nil, MuxOptions{SLO: m, Debug: true})

	// /debug/slo serves the snapshot.
	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/slo", nil))
	var snap SLOSnapshot
	if err := json.Unmarshal(rw.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Page != 1 || len(snap.Sessions) != 1 || snap.Sessions[0].State != SLOStatePage {
		t.Errorf("slo page = %+v", snap)
	}

	// /metrics refreshes the SLO gauges and the runtime sample.
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	body := rw.Body.String()
	for _, want := range []string{
		"collabvr_slo_sessions_page 1",
		"collabvr_runtime_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// /debug/pprof and /debug/runtime respond.
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rw.Code != 200 {
		t.Errorf("pprof index = %d", rw.Code)
	}
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/runtime", nil))
	var doc map[string]float64
	if err := json.Unmarshal(rw.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["goroutines"] <= 0 {
		t.Errorf("runtime doc = %v", doc)
	}

	// A mux without options keeps the old surface and omits the debug routes.
	plain := NewMuxOpts(reg, nil, MuxOptions{})
	rw = httptest.NewRecorder()
	plain.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rw.Code == 200 {
		t.Error("plain mux serves pprof")
	}
}

func TestSLOObserveSlotZeroAllocsSteadyState(t *testing.T) {
	m := sloForTest()
	for i := 0; i < 200; i++ {
		m.ObserveSlot(1, true, 3)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.ObserveSlot(1, true, 3)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ObserveSlot allocates %.1f/op", allocs)
	}
}

// TestMetricsScrapeRefreshesBreakerGauges: the breaker's session gauges are
// set by Counts, which a /metrics scrape calls when the mux has the breaker.
func TestMetricsScrapeRefreshesBreakerGauges(t *testing.T) {
	reg := NewRegistry()
	b := NewBreaker(BreakerConfig{}, reg)
	b.Observe(1, SLOStatePage)
	b.Observe(2, SLOStateOK)
	mux := NewMuxOpts(reg, nil, MuxOptions{Breaker: b})
	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	body := rw.Body.String()
	for _, want := range []string{
		"collabvr_breaker_sessions_open 1\n",
		"collabvr_breaker_sessions_degraded 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestSLORefreshGaugesOnePass: refreshGauges sets the five gauges Snapshot
// sets, to the same values, without allocating, and Totals reports
// Snapshot's counts and worst burn rate.
func TestSLORefreshGaugesOnePass(t *testing.T) {
	gauges := []string{
		"collabvr_slo_sessions_ok", "collabvr_slo_sessions_warn", "collabvr_slo_sessions_page",
		"collabvr_slo_worst_miss_burn", "collabvr_slo_sessions_quality_breach",
	}
	read := func(reg *Registry) []float64 {
		var v []float64
		for _, name := range gauges {
			v = append(v, reg.Gauge(name).Value())
		}
		return v
	}
	viaSnapshot, viaRefresh := NewRegistry(), NewRegistry()
	for _, reg := range []*Registry{viaSnapshot, viaRefresh} {
		m := NewSLOMonitor(SLOConfig{WindowSlots: 50, ShortWindowSlots: 10}, reg)
		for i := 0; i < 40; i++ {
			m.ObserveSlot(1, true, 4)     // ok
			m.ObserveSlot(2, i%8 != 0, 2) // warn, under the quality floor
			m.ObserveSlot(3, i%2 == 0, 1) // page
			m.ObserveSlot(4, i < 30, 5)   // page, the worst burn
		}
		if reg == viaSnapshot {
			m.Snapshot()
			continue
		}
		m.refreshGauges()
		if allocs := testing.AllocsPerRun(100, m.refreshGauges); allocs != 0 {
			t.Errorf("RefreshGauges allocates %v times, want 0", allocs)
		}
	}
	want, got := read(viaSnapshot), read(viaRefresh)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RefreshGauges set %v, Snapshot %v (%v)", got, want, gauges)
	}
	if want[0] == 0 || want[1] == 0 || want[2] == 0 || want[4] == 0 {
		t.Fatalf("script too tame: gauges %v (%v)", want, gauges)
	}

	// Over a random observe/retire sequence, Totals' own pass counts what
	// Snapshot's rows count.
	m := NewSLOMonitor(SLOConfig{WindowSlots: 50, ShortWindowSlots: 10}, NewRegistry())
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 4000; step++ {
		session := uint32(rng.Intn(24))
		if rng.Intn(50) == 0 {
			m.Retire(session)
		} else {
			m.ObserveSlot(session, rng.Intn(int(session)%5+2) != 0, float64(1+rng.Intn(6)))
		}
		if step%97 != 0 {
			continue
		}
		ok, warn, page, worst := m.Totals()
		snap := m.Snapshot()
		if ok != snap.OK || warn != snap.Warn || page != snap.Page || worst != snap.WorstMissBurn {
			t.Fatalf("step %d: Totals %d/%d/%d worst %v, Snapshot %d/%d/%d worst %v",
				step, ok, warn, page, worst, snap.OK, snap.Warn, snap.Page, snap.WorstMissBurn)
		}
	}
	if ok, warn, page, _ := m.Totals(); ok == 0 || warn == 0 || page == 0 {
		t.Fatalf("random script too tame: %d ok, %d warn, %d page", ok, warn, page)
	}
}

package load

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/nettrace"
)

// TestCapTraceHorizonBitIdentical holds a session's horizon-bounded
// capacity — CapSlots and the virtual session's cursor — to the slots of
// the full 300-s trace, for every trace kind at three slot rates and for
// lifetimes from one slot to past the trace's end, where the full trace
// wraps and the bound must not apply.
func TestCapTraceHorizonBitIdentical(t *testing.T) {
	net := nettrace.DefaultConfig()
	pick := rand.New(rand.NewSource(8))
	for _, kind := range []nettrace.Kind{nettrace.Broadband, nettrace.LTE, nettrace.MmWave} {
		for _, sps := range []float64{30, 60, 90} {
			w := &Workload{Cfg: Config{SlotsPerSecond: sps, Net: net}}
			env := newSimEnv(w, &SimConfig{})
			var arena sessionArena
			for _, secs := range []float64{0, 1.0 / 30, 1, 4, 37.3, 298, 299, 299.5, 300, 301, 320} {
				slots := max(1, int(secs*sps))
				spec := SessionSpec{ArriveSlot: 7, DepartSlot: 7 + slots, NetKind: kind, NetSeed: pick.Int63()}
				full := nettrace.Generate(kind, net, rand.New(rand.NewSource(spec.NetSeed)))
				want := full.Slotted(slots, sps)
				var bounded nettrace.Trace
				w.netTraceInto(&bounded, spec, nil)
				if wraps := float64(slots)/sps+1 >= net.Seconds; wraps != (bounded.Duration() == full.Duration()) {
					t.Fatalf("%v at %v slots/s, %d slots: bounded trace lasts %v s of the full trace's %v",
						kind, sps, slots, bounded.Duration(), full.Duration())
				}
				got := w.CapSlots(spec)
				s := arena.get()
				env.setUp(s, spec)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v at %v slots/s, %d slots: CapSlots slot %d = %v, want %v", kind, sps, slots, i, got[i], want[i])
					}
					if c := s.in.caps.Next(); c != want[i] {
						t.Fatalf("%v at %v slots/s, %d slots: session cursor slot %d = %v, want %v", kind, sps, slots, i, c, want[i])
					}
				}
			}
		}
	}
}

// TestSimSessionRetainedBytes bounds what a virtual session keeps once set
// up — arena chunk and all — and what setting it up allocates. A session
// that went back to holding its whole motion trace and capacity slice
// (14 KB at sim_dense's 240-slot lifetime) fails the first bound.
func TestSimSessionRetainedBytes(t *testing.T) {
	const (
		sessions    = 2000
		maxRetained = 8 << 10 // bytes per session
		maxAllocs   = 0       // per setUp of a session value already held
	)
	w, cfg := denseBenchConfig(t, 11, 240)
	w.Sessions = w.Sessions[:sessions]
	cfg = cfg.withDefaults()
	env := newSimEnv(w, &cfg)
	var arena sessionArena
	kept := make([]*simSession, sessions)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, spec := range w.Sessions {
		kept[i] = arena.get()
		env.setUp(kept[i], spec)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sessions
	t.Logf("%d bytes retained per session", per)
	if per > maxRetained {
		t.Errorf("a set-up session retains %d bytes, want <= %d", per, maxRetained)
	}
	runtime.KeepAlive(kept)

	// The first sessions alternate the broadband and LTE kinds; an LTE
	// trace's shorter holds take more segments. Each is set up again over a
	// value another session left.
	for i, spec := range w.Sessions[:4] {
		allocs := testing.AllocsPerRun(20, func() { env.setUp(kept[i+1], spec) })
		if allocs > maxAllocs {
			t.Errorf("session %d: setUp allocates %v times, want <= %d", spec.ID, allocs, maxAllocs)
		}
	}
}

// TestRecycledSessionMatchesFresh: a session value that lived a session
// under a chaos profile — a long LTE trace that outgrew the inline segments,
// filled predictor windows, a breaker cap, misses, an injector — and was
// handed back to the arena is, once set up for a new spec, the session a
// fresh value gives: the same build rows, value rows and settled outcomes
// slot for slot, and the same report row.
func TestRecycledSessionMatchesFresh(t *testing.T) {
	const slots = 300
	w, err := Generate(Config{Shape: Steady, Seed: 5, Sessions: 2, HorizonSlots: 6000})
	if err != nil {
		t.Fatal(err)
	}
	first, next := w.Sessions[0], w.Sessions[1]
	first.ArriveSlot, first.DepartSlot, first.NetKind = 0, 70*60, nettrace.LTE
	next.ArriveSlot, next.DepartSlot, next.NetKind = 150, 150+slots, nettrace.Broadband
	cfg := SimConfig{Chaos: campaignChaos()}.withDefaults()
	env := newSimEnv(w, &cfg)

	type row struct {
		User        core.UserInput
		Values      []float64
		Rate, Delay float64
		Missed      bool
	}
	drive := func(s *simSession) ([]row, sessionOutcome) {
		var rows []row
		for k := 0; k < slots; k++ {
			values := make([]float64, cfg.Params.Levels)
			u := s.build(env, s.spec.ArriveSlot+k, 1, values)
			u.Rate, u.Delay = slices.Clone(u.Rate), slices.Clone(u.Delay)
			q, _ := s.clamp(1 + k%cfg.Params.Levels)
			r := row{User: u, Values: values}
			r.Rate, r.Delay, r.Missed = s.settle(env, q, 0, 0)
			rows = append(rows, r)
		}
		return rows, s.outcome()
	}

	var arena sessionArena
	old := arena.get()
	env.setUp(old, first)
	if len(old.in.net.Segments) <= sessionSegments {
		t.Fatalf("the first session's trace has %d segments; want more than the %d inline", len(old.in.net.Segments), sessionSegments)
	}
	drive(old)
	old.breakerCap = 2
	if old.inj == nil || old.missed == 0 {
		t.Fatalf("the first session saw no chaos (injector %v, %d misses)", old.inj, old.missed)
	}
	arena.put(old)
	recycled := arena.get()
	if recycled != old {
		t.Fatal("the arena did not hand back the departed session")
	}
	env.setUp(recycled, next)
	gotRows, gotOut := drive(recycled)

	fresh := arena.get()
	env.setUp(fresh, next)
	wantRows, wantOut := drive(fresh)
	for k := range wantRows {
		if !reflect.DeepEqual(gotRows[k], wantRows[k]) {
			t.Fatalf("slot %d: recycled session\n  %+v\nfresh session\n  %+v", k, gotRows[k], wantRows[k])
		}
	}
	if gotOut != wantOut {
		t.Fatalf("outcome: recycled %+v, fresh %+v", gotOut, wantOut)
	}
}

// TestPrologueAheadMatchesInline: a session whose prologue for each next
// slot runs right after the slot settles — as the tail of the fleet
// engine's slot loop runs it, beside the solve — is the session that runs
// each slot's prologue inline in its build: the same build rows, value rows
// and settled outcomes slot for slot under a chaos profile, and the same
// report row. Blackouts fall at the same slots in both: the first two before
// any prologue ran ahead, the rest on slots whose pose and capacity the
// ahead prologue already drew, some of them inside the profile's capacity
// cliff, blackout and loss windows.
func TestPrologueAheadMatchesInline(t *testing.T) {
	const slots = 300
	w, err := Generate(Config{Shape: Steady, Seed: 5, Sessions: 1, HorizonSlots: 6000})
	if err != nil {
		t.Fatal(err)
	}
	spec := w.Sessions[0]
	spec.ArriveSlot, spec.DepartSlot, spec.NetKind = 50, 50+slots, nettrace.LTE
	cfg := SimConfig{Chaos: campaignChaos()}.withDefaults()
	env := newSimEnv(w, &cfg)
	blackouts := map[int]bool{0: true, 1: true, 9: true, 10: true, 11: true, 100: true, 195: true, 196: true, 280: true, 299: true}

	type row struct {
		User        core.UserInput
		Values      []float64
		Rate, Delay float64
		Missed      bool
		Blackout    bool
	}
	drive := func(s *simSession, ahead bool) ([]row, sessionOutcome) {
		var rows []row
		for k := 0; k < slots; k++ {
			slot := spec.ArriveSlot + k
			if want := ahead && k > 0; s.prepped(slot) != want {
				t.Fatalf("ahead %v, slot %d: prepped %v before the slot, want %v", ahead, k, s.prepped(slot), want)
			}
			if blackouts[k] {
				s.blackout(env, slot)
				rows = append(rows, row{Blackout: true})
			} else {
				values := make([]float64, cfg.Params.Levels)
				u := s.build(env, slot, 1, values)
				u.Rate, u.Delay = slices.Clone(u.Rate), slices.Clone(u.Delay)
				q, _ := s.clamp(1 + k%cfg.Params.Levels)
				r := row{User: u, Values: values}
				r.Rate, r.Delay, r.Missed = s.settle(env, q, 0, 0)
				rows = append(rows, r)
			}
			if ahead && s.livesAt(slot+1, w.Cfg.HorizonSlots) {
				s.prologue(env, slot+1)
			}
		}
		return rows, s.outcome()
	}

	var arena sessionArena
	prepped, inline := arena.get(), arena.get()
	env.setUp(prepped, spec)
	env.setUp(inline, spec)
	gotRows, gotOut := drive(prepped, true)
	wantRows, wantOut := drive(inline, false)
	misses := 0
	for k := range wantRows {
		if !reflect.DeepEqual(gotRows[k], wantRows[k]) {
			t.Fatalf("slot %d: prologue ahead\n  %+v\ninline\n  %+v", k, gotRows[k], wantRows[k])
		}
		if wantRows[k].Missed {
			misses++
		}
	}
	if gotOut != wantOut {
		t.Fatalf("outcome: prologue ahead %+v, inline %+v", gotOut, wantOut)
	}
	if misses == 0 || inline.inj == nil {
		t.Fatalf("the session saw no chaos (injector %v, %d settled misses)", inline.inj, misses)
	}
}

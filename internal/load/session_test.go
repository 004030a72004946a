package load

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

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

// TestSimSessionWholeLines: a session value is a whole number of cache
// lines, so that in an arena chunk, which starts on one, every session's
// banks do too (simSession's trailing pad keeps it so).
func TestSimSessionWholeLines(t *testing.T) {
	if n := unsafe.Sizeof(simSession{}); n%64 != 0 {
		t.Errorf("simSession is %d B, not a whole number of 64-B lines", n)
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

// TestPrologueAheadMatchesInline: a session whose prologues run ahead a
// refill at a time — as the fleet engine runs them, from the slot after the
// current one to the session's next refill boundary, in the tail of the
// slot's loop or right after the chunk that set the session up — is the
// session that runs each slot's prologue inline in its build: the same
// build rows, value rows and settled outcomes slot for slot under a chaos
// profile, and the same report row. It covers a session at every stagger
// phase, an arrival and a departure on every residue of the refill cycle at
// each phase, a horizon that cuts a refill short, blackouts on the slots a
// refill runs in and the slots it fills first, and lives inside the
// profile's capacity cliff, blackout and loss windows. Every slot it checks
// the ring: the slot's own bank was filled before the slot and is not
// rewritten during it, the banks filled are exactly the ones up to the
// boundary, and no prologue runs for a slot the session does not live.
func TestPrologueAheadMatchesInline(t *testing.T) {
	const span = bankDepth - 1
	w, err := Generate(Config{Shape: Steady, Seed: 5, Sessions: 1, HorizonSlots: 6000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{Chaos: campaignChaos()}.withDefaults()
	env := newSimEnv(w, &cfg)

	type row struct {
		User        core.UserInput
		Values      []float64
		Rate, Delay float64
		Missed      bool
		Blackout    bool
	}
	var arena sessionArena
	ahead, inline := arena.get(), arena.get()
	var cutByHorizon, cutByDeparture, blackoutRefills int
	// drive runs the session over its life in a horizon-slot run. With
	// runAhead it keeps the engine's pattern and checks the ring; without,
	// every prologue runs inline in the slot's build or blackout.
	drive := func(s *simSession, spec SessionSpec, horizon int, runAhead bool) ([]row, sessionOutcome) {
		env.setUp(s, spec)
		phase := int(spec.ID % span)
		last := min(horizon, spec.DepartSlot) - 1 // the session's last live slot
		var rows []row
		for slot := spec.ArriveSlot; slot <= last; slot++ {
			if want := runAhead && slot > spec.ArriveSlot; s.prepped(slot) != want {
				t.Fatalf("phase %d, life [%d, %d) of %d: prepped(%d) = %v before the slot, want %v",
					phase, spec.ArriveSlot, spec.DepartSlot, horizon, slot, s.prepped(slot), want)
			}
			// A blackout on every slot a refill fills first, and on every
			// third slot the tail refills in.
			refillSlot := (slot+1+phase)%span == 0
			if (slot+phase)%span == 0 || refillSlot && slot%3 == 0 {
				if runAhead && refillSlot {
					blackoutRefills++
				}
				s.blackout(env, slot)
				rows = append(rows, row{Blackout: true})
			} else {
				values := make([]float64, cfg.Params.Levels)
				u := s.build(env, slot, 1, values)
				u.Rate, u.Delay = slices.Clone(u.Rate), slices.Clone(u.Delay)
				q, _ := s.clamp(1 + slot%cfg.Params.Levels)
				r := row{User: u, Values: values}
				r.Rate, r.Delay, r.Missed = s.settle(env, q, 0, 0)
				rows = append(rows, r)
			}
			if !runAhead {
				continue
			}
			// The engine's tail: the arrival's chunk refills after its
			// build, any other slot refills only an empty next bank.
			read := *s.bank(slot)
			next := slot + 1
			visit := slot == spec.ArriveSlot || (s.livesAt(next, horizon) && !s.prepped(next))
			if visit {
				s.runAhead(env, next, horizon)
			}
			if *s.bank(slot) != read {
				t.Fatalf("phase %d: slot %d's bank was rewritten during the slot", phase, slot)
			}
			if !visit {
				continue
			}
			if slot != spec.ArriveSlot && !refillSlot {
				t.Fatalf("phase %d: refilled after slot %d, off the phase's boundaries", phase, slot)
			}
			boundary := next + span - (next+phase)%span
			end := min(boundary, last+1)
			if end < boundary && horizon <= last+1 {
				cutByHorizon++
			} else if end < boundary {
				cutByDeparture++
			}
			for u := next; u < next+bankDepth; u++ {
				if want := u < end; s.prepped(u) != want {
					t.Fatalf("phase %d, life [%d, %d) of %d: after refilling from slot %d, prepped(%d) = %v, want %v (boundary %d)",
						phase, spec.ArriveSlot, spec.DepartSlot, horizon, next, u, s.prepped(u), want, boundary)
				}
			}
		}
		for i := range s.banks {
			if b := int(s.banks[i].slot); b > last {
				t.Fatalf("phase %d, life [%d, %d) of %d: a prologue ran for slot %d", phase, spec.ArriveSlot, spec.DepartSlot, horizon, b)
			}
		}
		return rows, s.outcome()
	}

	misses := 0
	for phase := 0; phase < span; phase++ {
		for _, base := range []int{50, 230, 310} { // the profile's cliff, blackout and loss windows
			// Every arrival residue of the refill cycle, each with a
			// different departure residue.
			for a := 0; a < span; a++ {
				spec := w.Sessions[0]
				spec.ID, spec.NetKind = uint32(phase), nettrace.LTE
				spec.ArriveSlot = base + a
				spec.DepartSlot = base + 3*span + (span - 1 - a)
				for _, horizon := range []int{6000, spec.ArriveSlot + span + 2} {
					gotRows, gotOut := drive(ahead, spec, horizon, true)
					wantRows, wantOut := drive(inline, spec, horizon, false)
					for k := range wantRows {
						if !reflect.DeepEqual(gotRows[k], wantRows[k]) {
							t.Fatalf("phase %d, life [%d, %d) of %d, slot %d: run ahead\n  %+v\ninline\n  %+v",
								phase, spec.ArriveSlot, spec.DepartSlot, horizon, spec.ArriveSlot+k, gotRows[k], wantRows[k])
						}
						if wantRows[k].Missed {
							misses++
						}
					}
					if gotOut != wantOut {
						t.Fatalf("phase %d, life [%d, %d) of %d: outcome run ahead %+v, inline %+v",
							phase, spec.ArriveSlot, spec.DepartSlot, horizon, gotOut, wantOut)
					}
				}
			}
		}
	}
	if cutByHorizon == 0 || cutByDeparture == 0 || blackoutRefills == 0 || misses == 0 {
		t.Fatalf("edges not reached: %d refills cut by the horizon, %d by a departure, %d blackouts on a refill slot, %d settled misses",
			cutByHorizon, cutByDeparture, blackoutRefills, misses)
	}
}

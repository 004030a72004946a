package load

import (
	"math/rand"
	"runtime"
	"testing"

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
			for _, secs := range []float64{0, 1.0 / 30, 1, 4, 37.3, 298, 299, 299.5, 300, 301, 320} {
				slots := max(1, int(secs*sps))
				spec := SessionSpec{ArriveSlot: 7, DepartSlot: 7 + slots, NetKind: kind, NetSeed: pick.Int63()}
				full := nettrace.Generate(kind, net, rand.New(rand.NewSource(spec.NetSeed)))
				want := full.Slotted(slots, sps)
				bounded := w.netTrace(spec, nil)
				if wraps := float64(slots)/sps+1 >= net.Seconds; wraps != (bounded.Duration() == full.Duration()) {
					t.Fatalf("%v at %v slots/s, %d slots: bounded trace lasts %v s of the full trace's %v",
						kind, sps, slots, bounded.Duration(), full.Duration())
				}
				got := w.CapSlots(spec)
				s := env.newSession(spec)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v at %v slots/s, %d slots: CapSlots slot %d = %v, want %v", kind, sps, slots, i, got[i], want[i])
					}
					if c := s.caps.Next(); c != want[i] {
						t.Fatalf("%v at %v slots/s, %d slots: session cursor slot %d = %v, want %v", kind, sps, slots, i, c, want[i])
					}
				}
			}
		}
	}
}

// TestSimSessionRetainedBytes bounds what a virtual session keeps once set
// up, and what setting it up allocates. A session that went back to holding
// its whole motion trace and capacity slice (14 KB at sim_dense's
// 240-slot lifetime) fails the first bound.
func TestSimSessionRetainedBytes(t *testing.T) {
	const (
		sessions    = 2000
		maxRetained = 8 << 10 // bytes per session
		maxAllocs   = 10      // per newSession
	)
	w, cfg := denseBenchConfig(t, 11, 240)
	w.Sessions = w.Sessions[:sessions]
	cfg = cfg.withDefaults()
	env := newSimEnv(w, &cfg)
	kept := make([]simSession, sessions)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, spec := range w.Sessions {
		kept[i] = env.newSession(spec)
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
	// trace's shorter holds take more segments.
	for _, spec := range w.Sessions[:4] {
		allocs := testing.AllocsPerRun(20, func() { kept[0] = env.newSession(spec) })
		if allocs > maxAllocs {
			t.Errorf("session %d: newSession allocates %v times, want <= %d", spec.ID, allocs, maxAllocs)
		}
	}
}

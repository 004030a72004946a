package load

import (
	"runtime"
	"testing"
	"time"
)

// TestRunLiveSteadyStateAllocs gates the live data plane's allocation rate
// end to end: four sessions on loopback sockets, the server and the clients
// in this process, levels held at the floor as in the live_clean benchmark.
// The session-slots a doubled horizon adds may cost at most 5 heap
// allocations each: control receive, tile store, client RAM and per-slot
// lists reuse what earlier slots left, and without that reuse the figure
// is about 11. What it counts is mostly the tile store and the clients' RAM
// still filling: an entry and a buffer per store miss, an entry per tile a
// client holds. Set-up allocations are per session and cancel in the
// difference.
func TestRunLiveSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time run")
	}
	const sessions, horizon = 4, 150
	measure := func(h int) (mallocs uint64, slots int) {
		w, err := Generate(Config{Shape: Steady, Seed: 5, Sessions: sessions, HorizonSlots: h})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := RunLive(w, LiveConfig{SlotDuration: 4 * time.Millisecond, BudgetMbps: 4 * sessions})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range rep.Outcomes {
			slots += o.Slots
		}
		return after.Mallocs - before.Mallocs, slots
	}
	measure(horizon) // warm the runtime's own pools
	short, shortSlots := measure(horizon)
	long, longSlots := measure(2 * horizon)
	if longSlots <= shortSlots {
		t.Fatalf("%d session-slots over %d slots, %d over %d", shortSlots, horizon, longSlots, 2*horizon)
	}
	perSlot := (float64(long) - float64(short)) / float64(longSlots-shortSlots)
	t.Logf("mallocs: %d over %d session-slots, %d over %d: %.2f per added session-slot",
		short, shortSlots, long, longSlots, perSlot)
	if perSlot > 5 {
		t.Errorf("the live slot allocates %.2f times per session-slot, want <= 5", perSlot)
	}
}

package nettrace

import (
	"math/rand"
	"testing"
)

// referenceSlotted is the whole-trace expansion as it stood before the
// cursor: the oracle SlotCursor and Slotted are held to bit for bit.
func referenceSlotted(t *Trace, slots int, slotsPerSecond float64) []float64 {
	if slotsPerSecond <= 0 {
		slotsPerSecond = 60
	}
	out := make([]float64, slots)
	if len(t.Segments) == 0 {
		return out
	}
	seg := 0
	remaining := t.Segments[0].Seconds
	dt := 1 / slotsPerSecond
	for i := 0; i < slots; i++ {
		out[i] = t.Segments[seg].Mbps
		remaining -= dt
		for remaining <= 0 {
			seg = (seg + 1) % len(t.Segments)
			remaining += t.Segments[seg].Seconds
			if t.Segments[seg].Seconds <= 0 {
				remaining += dt
			}
		}
	}
	return out
}

// TestSlotCursorMatchesSlotted walks generated traces of every kind past
// their end (so the wrap runs), plus hand-made ones with zero-length and
// sub-slot segments and an empty one, at several slot rates, and holds the
// cursor and Slotted to the reference expansion.
func TestSlotCursorMatchesSlotted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := Config{MinMbps: 20, MaxMbps: 100, Seconds: 40}
	traces := []*Trace{
		{},
		{Segments: []Segment{{Mbps: 42, Seconds: 100}}},
		{Segments: []Segment{{Mbps: 50, Seconds: 1}, {Mbps: 80, Seconds: 0.5}}},
		{Segments: []Segment{{Mbps: 10, Seconds: 0}, {Mbps: 30, Seconds: 0.004}, {Mbps: 60, Seconds: 0.7}}},
	}
	for _, kind := range []Kind{Broadband, LTE, MmWave} {
		for i := 0; i < 3; i++ {
			traces = append(traces, Generate(kind, cfg, rng))
		}
	}
	for ti, tr := range traces {
		for _, sps := range []float64{0, 30, 60, 90, 250} {
			const slots = 12000 // 50 s at 250 slots/s, 400 s at 30
			want := referenceSlotted(tr, slots, sps)
			got := tr.Slotted(slots, sps)
			c := tr.Cursor(sps)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trace %d sps %v: Slotted slot %d = %v, want %v", ti, sps, i, got[i], want[i])
				}
				if v := c.Next(); v != want[i] {
					t.Fatalf("trace %d sps %v: cursor slot %d = %v, want %v", ti, sps, i, v, want[i])
				}
			}
		}
	}
}

func TestSlotCursorNextDoesNotAllocate(t *testing.T) {
	tr := Generate(LTE, DefaultConfig(), rand.New(rand.NewSource(1)))
	c := tr.Cursor(60)
	if n := testing.AllocsPerRun(1000, func() { c.Next() }); n != 0 {
		t.Errorf("SlotCursor.Next allocates %v times, want 0", n)
	}
}

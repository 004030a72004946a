package server

import (
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// TestCapEstimateMaxFilter verifies the windowed-max capacity estimator:
// goodput samples below the link rate (non-saturating trains) must not drag
// the estimate down; only the window maximum counts.
func TestCapEstimateMaxFilter(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	c := testDecider(t, cfg)
	sess := bareSession(t, c, 1, 1)
	// No samples: fall back to the configured initial estimate.
	if got := sess.capEstimate(); got != 30 {
		t.Errorf("fallback estimate = %v, want 30", got)
	}

	// Mixed goodput samples: many small, one near the true rate.
	feed := func(slot uint32, bytes int, delayMs float64) {
		sess.allocated[slot] = allocRecord{level: 3, rate: 20}
		c.ack(sess, transport.TileACK{
			User: 1, Slot: slot, Bytes: bytes, DelayMs: delayMs, Covered: true,
		})
	}
	feed(1, 10000, 8) // 10 Mbps
	feed(2, 12000, 8) // 12 Mbps
	feed(3, 50000, 8) // 50 Mbps — a saturating train
	feed(4, 9000, 8)  // 9 Mbps

	if got := sess.capEstimate(); got < 45 || got > 55 {
		t.Errorf("max-filter estimate = %v, want about 50", got)
	}
}

// TestCapEstimateWindowEvicts: once the window rolls past a stale high
// sample, the estimate adapts downward — capacity drops are eventually
// noticed.
func TestCapEstimateWindowEvicts(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	c := testDecider(t, cfg)
	sess := bareSession(t, c, 1, 1)
	feed := func(slot uint32, mbps float64) {
		sess.allocated[slot] = allocRecord{level: 3, rate: 20}
		c.ack(sess, goodputACK(slot, mbps))
	}
	feed(0, 60)
	for s := uint32(1); s <= capWindow+5; s++ {
		feed(s, 20)
	}
	if got := sess.capEstimate(); got > 25 {
		t.Errorf("estimate = %v, want the stale 60 Mbps sample evicted (~20)", got)
	}
}

// goodputACK is an ACK for slot whose goodput sample reads mbps: its bytes
// over 10 ms.
func goodputACK(slot uint32, mbps float64) transport.TileACK {
	return transport.TileACK{User: 1, Slot: slot, Bytes: int(mbps * 1e6 / 8 * 0.010), DelayMs: 10, Covered: true}
}

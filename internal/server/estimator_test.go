package server

import (
	"testing"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/tiles"
	"repro/internal/transport"
)

// TestCapEstimateMaxFilter verifies the windowed-max capacity estimator:
// goodput samples below the link rate (non-saturating trains) must not drag
// the estimate down; only the window maximum counts.
func TestCapEstimateMaxFilter(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sess := &session{
		ema:       estimate.NewEMA(0.2),
		ledger:    tiles.NewDeliveryLedger(),
		allocated: map[uint32]allocRecord{},
	}
	// No samples: fall back to the configured initial estimate.
	if got := sess.capEstimateLocked(30); got != 30 {
		t.Errorf("fallback estimate = %v, want 30", got)
	}

	// Mixed goodput samples: many small, one near the true rate.
	feed := func(slot uint32, bytes int, delayMs float64) {
		sess.allocated[slot] = allocRecord{level: 3, rate: 20}
		srv.handleACK(sess, transport.TileACK{
			User: 1, Slot: slot, Bytes: bytes, DelayMs: delayMs, Covered: true,
		})
	}
	feed(1, 10000, 8) // 10 Mbps
	feed(2, 12000, 8) // 12 Mbps
	feed(3, 50000, 8) // 50 Mbps — a saturating train
	feed(4, 9000, 8)  // 9 Mbps

	sess.mu.Lock()
	got := sess.capEstimateLocked(30)
	sess.mu.Unlock()
	if got < 45 || got > 55 {
		t.Errorf("max-filter estimate = %v, want about 50", got)
	}
}

// TestCapEstimateWindowEvicts: once the window rolls past a stale high
// sample, the estimate adapts downward — capacity drops are eventually
// noticed.
func TestCapEstimateWindowEvicts(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sess := &session{
		ema:       estimate.NewEMA(0.2),
		ledger:    tiles.NewDeliveryLedger(),
		allocated: map[uint32]allocRecord{},
	}
	feed := func(slot uint32, mbps float64) {
		sess.allocated[slot] = allocRecord{level: 3, rate: 20}
		// bytes over 10 ms giving the desired Mbps.
		bytes := int(mbps * 1e6 / 8 * 0.010)
		srv.handleACK(sess, transport.TileACK{
			User: 1, Slot: slot, Bytes: bytes, DelayMs: 10, Covered: true,
		})
	}
	feed(0, 60)
	for s := uint32(1); s <= capWindow+5; s++ {
		feed(s, 20)
	}
	sess.mu.Lock()
	got := sess.capEstimateLocked(30)
	sess.mu.Unlock()
	if got > 25 {
		t.Errorf("estimate = %v, want the stale 60 Mbps sample evicted (~20)", got)
	}
}

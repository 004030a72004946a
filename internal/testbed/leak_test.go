package testbed

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestRunLeavesNoGoroutines: the server, its clients and the slot clock
// are all gone when Run returns.
func TestRunLeavesNoGoroutines(t *testing.T) {
	base := obs.LeakSnapshot()
	cfg := tinyConfig()
	cfg.Slots = 60
	if _, err := Run(cfg, "proposed", core.NewSolverAllocator()); err != nil {
		t.Fatal(err)
	}
	obs.AssertNoLeaks(t, base)
}

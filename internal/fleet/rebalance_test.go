package fleet

import (
	"math"
	"testing"
)

func TestSharesProportionalToDemandWithFloor(t *testing.T) {
	rb := NewRebalancer(RebalanceConfig{EverySlots: 100, Alpha: 1, MinShareFrac: 0.25}, 3)
	rb.Observe(0, 300)
	rb.Observe(1, 100)
	rb.Observe(2, 0)
	alive := []bool{true, true, true}
	shares := rb.Shares(400, alive)
	sum := shares[0] + shares[1] + shares[2]
	if math.Abs(sum-400) > 1e-9 {
		t.Fatalf("shares sum %g, want 400", sum)
	}
	floor := 0.25 * 400 / 3
	if shares[2] < floor-1e-9 {
		t.Fatalf("idle shard got %g, below floor %g", shares[2], floor)
	}
	if !(shares[0] > shares[1] && shares[1] > shares[2]) {
		t.Fatalf("shares not demand-ordered: %v", shares)
	}
	if rb.rebalanceCount() != 1 {
		t.Fatalf("Rebalances = %d", rb.rebalanceCount())
	}
}

func TestSharesSkipDeadShardsAndIdleFleet(t *testing.T) {
	rb := NewRebalancer(RebalanceConfig{}, 3)
	alive := []bool{true, false, true}
	shares := rb.Shares(300, alive)
	if shares[1] != 0 {
		t.Fatalf("dead shard got %g", shares[1])
	}
	// Idle fleet (no demand observed): equal split of the survivors.
	if math.Abs(shares[0]-150) > 1e-9 || math.Abs(shares[2]-150) > 1e-9 {
		t.Fatalf("idle split = %v, want 150/0/150", shares)
	}
	if got := rb.Shares(300, []bool{false, false, false}); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("all-dead shares = %v, want zeros", got)
	}
}

func TestObserveEMASmoothing(t *testing.T) {
	rb := NewRebalancer(RebalanceConfig{Alpha: 0.5}, 1)
	rb.Observe(0, 100) // primes directly
	if rb.demand[0] != 100 {
		t.Fatalf("primed demand = %g", rb.demand[0])
	}
	rb.Observe(0, 0)
	if rb.demand[0] != 50 {
		t.Fatalf("EMA after 0-sample = %g, want 50", rb.demand[0])
	}
	rb.Observe(-1, 5) // out of range: ignored, no panic
	rb.Observe(9, 5)
}

func TestDueCadence(t *testing.T) {
	rb := NewRebalancer(RebalanceConfig{EverySlots: 120}, 2)
	if rb.due(0) {
		t.Fatal("slot 0 must not rebalance")
	}
	if !rb.due(120) || !rb.due(240) || rb.due(121) {
		t.Fatal("cadence wrong")
	}
}

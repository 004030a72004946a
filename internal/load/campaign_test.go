package load

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/step"
)

// churnWorkload generates a Poisson workload capped at `sessions` sessions
// with sub-second holds, so the active set churns every few slots — the
// regime where build-phase sharding has to prove it changes nothing.
func churnWorkload(tb testing.TB, sessions, horizon int, seed int64) *Workload {
	tb.Helper()
	w, err := Generate(Config{
		Shape:          Poisson,
		Seed:           seed,
		HorizonSlots:   horizon,
		SlotsPerSecond: 60,
		Sessions:       sessions,
		RatePerSec:     1.25 * float64(sessions) * 60 / float64(horizon),
		MeanHoldSec:    0.8,
	})
	if err != nil {
		tb.Fatalf("generate workload: %v", err)
	}
	if len(w.Sessions) < sessions*9/10 {
		tb.Fatalf("workload underfilled: got %d sessions, want ~%d", len(w.Sessions), sessions)
	}
	return w
}

// campaignChaos mixes a capacity cliff, a blackout, and slot loss so the
// differential runs cover the injector paths, not just the happy path.
func campaignChaos() *chaos.Profile {
	return &chaos.Profile{
		Name: "campaign-mixed",
		Seed: 7,
		Faults: []chaos.Fault{
			{Kind: chaos.FaultBandwidth, StartSlot: 60, DurationSlots: 120, Factor: 0.4},
			{Kind: chaos.FaultBlackout, StartSlot: 240, DurationSlots: 30},
			{Kind: chaos.FaultLoss, StartSlot: 320, DurationSlots: 80, P: 0.05},
		},
	}
}

func mustSimulate(tb testing.TB, w *Workload, cfg SimConfig) *RunReport {
	tb.Helper()
	rep, err := Simulate(w, cfg)
	if err != nil {
		tb.Fatalf("simulate: %v", err)
	}
	return rep
}

// diffReports pinpoints the first divergence so a failure says more than
// "not DeepEqual".
func diffReports(tb testing.TB, label string, a, b *RunReport) {
	tb.Helper()
	if reflect.DeepEqual(a, b) {
		return
	}
	if len(a.Outcomes) != len(b.Outcomes) {
		tb.Fatalf("%s: outcome count %d vs %d", label, len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			tb.Fatalf("%s: outcome[%d] diverges:\n  a=%+v\n  b=%+v", label, i, a.Outcomes[i], b.Outcomes[i])
		}
	}
	for i := range a.SlotQuality {
		if a.SlotQuality[i] != b.SlotQuality[i] {
			tb.Fatalf("%s: slot quality[%d] %v vs %v", label, i, a.SlotQuality[i], b.SlotQuality[i])
		}
	}
	tb.Fatalf("%s: reports diverge outside outcomes/slot quality:\n  a=%+v\n  b=%+v", label, a, b)
}

// TestParallelForCoversAll: the fork-join the virtual engine splits its
// slot with calls every index exactly once, at grain 1 (the engine's chunks)
// and at step.Grain, for any worker count and loop size, one ForkJoin
// running loop after loop as a run does.
func TestParallelForCoversAll(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 16} {
		fj := step.NewForkJoin(workers)
		for _, grain := range []int{1, step.Grain} {
			for _, n := range []int{0, 1, 7, 8, 9, 100, 1000} {
				hits := make([]int32, n)
				fj.Run(n, grain, func(i int) { atomic.AddInt32(&hits[i], 1) })
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d grain=%d n=%d: index %d hit %d times", workers, grain, n, i, h)
					}
				}
			}
		}
		fj.Close()
	}
}

// TestArrivalIndexStable: the arrival index lists each slot's sessions in
// the workload's order, for an unsorted workload too, and drops the ones
// arriving outside the horizon.
func TestArrivalIndexStable(t *testing.T) {
	const horizon = 6
	var sessions []SessionSpec
	for i, arrive := range []int{3, 0, 3, -1, 5, 0, 9, 3, 6, 1} {
		sessions = append(sessions, SessionSpec{ID: uint32(100 - i), ArriveSlot: arrive})
	}
	idx := indexArrivals(sessions, horizon)
	for slot := 0; slot < horizon; slot++ {
		var want []SessionSpec
		for _, s := range sessions {
			if s.ArriveSlot == slot {
				want = append(want, s)
			}
		}
		if got := idx.at(slot); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Errorf("slot %d: arrivals %+v, want %+v", slot, got, want)
		}
	}
	if len(idx.specs) != 7 {
		t.Errorf("indexed %d sessions, want the 7 inside the horizon", len(idx.specs))
	}
}

// TestSimShardedMatchesSerial is the build-phase differential: the same
// churny, chaos-injected workload must produce a bit-identical RunReport
// whether the build runs serially or sharded across goroutines (including
// a worker count that does not divide the shard size evenly). The sharded
// runs start their fork-join's helpers and must stop them before returning.
func TestSimShardedMatchesSerial(t *testing.T) {
	w := churnWorkload(t, 2000, 900, 41)
	chaosProfile := campaignChaos()
	serial := mustSimulate(t, w, SimConfig{Workers: 1, Chaos: chaosProfile})
	base := obs.LeakSnapshot()
	for _, workers := range []int{4, 13} {
		sharded := mustSimulate(t, w, SimConfig{Workers: workers, Chaos: chaosProfile})
		obs.AssertNoLeaks(t, base)
		diffReports(t, "sharded-vs-serial", serial, sharded)
	}
}

// TestCampaign100KSessionsBitIdentical is the acceptance campaign: one
// hundred thousand sessions through the virtual-time engine, run twice
// (serial build, then sharded), must be bit-for-bit identical.
func TestCampaign100KSessionsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-session campaign skipped in -short")
	}
	w := churnWorkload(t, 100_000, 3000, 20260808)
	if len(w.Sessions) < 100_000 {
		t.Fatalf("campaign underfilled: %d sessions", len(w.Sessions))
	}
	first := mustSimulate(t, w, SimConfig{Workers: 1})
	second := mustSimulate(t, w, SimConfig{Workers: 4})
	diffReports(t, "campaign-100k", first, second)
	if first.Completed != first.Spawned {
		t.Fatalf("campaign lost sessions: spawned %d completed %d", first.Spawned, first.Completed)
	}
}

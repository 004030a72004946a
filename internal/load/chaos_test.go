package load

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/nettrace"
	"repro/internal/obs"
	"repro/internal/transport"
)

// blackoutProfile is the acceptance campaign's fault schedule: a hard
// partition for all sessions from slot 600 to 780 (3 s at 60 FPS).
func blackoutProfile() *chaos.Profile {
	return &chaos.Profile{
		Name: "blackout-campaign",
		Seed: 99,
		Faults: []chaos.Fault{
			{Kind: chaos.FaultBlackout, StartSlot: 600, DurationSlots: 180},
		},
	}
}

// campaignRun executes the workload once through the sim engine with its own
// SLO monitor and breaker, optionally under the blackout profile.
func campaignRun(t *testing.T, w *Workload, withChaos bool) (*RunReport, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	slo := obs.NewSLOMonitor(obs.SLOConfig{
		WindowSlots:      300,
		ShortWindowSlots: 60,
	}, reg)
	brk := obs.NewBreaker(obs.BreakerConfig{
		Levels:        core.DefaultSystemParams().Levels,
		RecoverySlots: 120,
		HalfOpenSlots: 60,
	}, reg)
	cfg := SimConfig{
		NewAllocator: func() core.Allocator { return core.NewSolverAllocator() },
		AllocName:    "dv-greedy",
		SLO:          slo,
		Breaker:      brk,
	}
	if withChaos {
		cfg.Chaos = blackoutProfile()
	}
	rep, err := Simulate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep, reg
}

// TestSimChaosBlackoutCampaign is the PR's acceptance campaign: a seeded
// blackout must page the SLO monitor, trip the breaker into quality capping
// (not session dropping), reproduce bit-identically per seed, and recover
// the per-slot quality to within 5% of the fault-free run after the fault
// clears.
func TestSimChaosBlackoutCampaign(t *testing.T) {
	// Broadband-only traces with a 30 Mbps floor keep the FAULT-FREE run
	// clean (zero misses): every page and degraded slot below is then
	// attributable to the injected blackout, not workload noise. Poisson
	// churn matters too — the paper's variance term anchors each session's
	// quality at its own running mean, so a session that lived through a
	// long outage settles at a permanently lower level; with arrivals after
	// the fault, the SYSTEM recovers even though scarred sessions retire.
	w, err := Generate(Config{Shape: Poisson, RatePerSec: 0.5, Sessions: 60,
		HorizonSlots: 3000, Seed: 7, MeanHoldSec: 10,
		NetKinds: []nettrace.Kind{nettrace.Broadband},
		Net:      nettrace.Config{MinMbps: 30, MaxMbps: 100, Seconds: 300}})
	if err != nil {
		t.Fatal(err)
	}

	base, baseReg := campaignRun(t, w, false)
	rep, reg := campaignRun(t, w, true)
	rep2, _ := campaignRun(t, w, true)

	// Determinism: the same seed yields the same campaign, bit for bit.
	if !reflect.DeepEqual(rep.Outcomes, rep2.Outcomes) {
		t.Error("chaos campaign outcomes differ between identical seeded runs")
	}
	if !reflect.DeepEqual(rep.SlotQuality, rep2.SlotQuality) {
		t.Error("chaos campaign slot-quality series differ between identical seeded runs")
	}
	if rep.DegradedSlots != rep2.DegradedSlots {
		t.Errorf("degraded-slot counts differ: %d vs %d", rep.DegradedSlots, rep2.DegradedSlots)
	}

	// The fault must page the SLO monitor (the fault-free run must not).
	if got := reg.Counter("collabvr_slo_page_transitions_total").Value(); got == 0 {
		t.Error("blackout never drove the SLO monitor to page")
	}
	if got := baseReg.Counter("collabvr_slo_page_transitions_total").Value(); got != 0 {
		t.Errorf("fault-free run paged %d times", got)
	}

	// Graceful degradation: the breaker capped quality...
	if rep.DegradedSlots == 0 {
		t.Error("breaker never capped a slot during the fault")
	}
	if got := reg.Counter("collabvr_breaker_open_transitions_total").Value(); got == 0 {
		t.Error("breaker never opened under a full blackout")
	}
	// ...instead of dropping users: every session completes, as fault-free.
	if rep.Completed != base.Completed || rep.Completed != rep.Spawned {
		t.Errorf("completed %d of %d sessions under chaos, fault-free completed %d (no user may be dropped)",
			rep.Completed, rep.Spawned, base.Completed)
	}

	// During the blackout the displayed quality must collapse.
	if faultQ, baseQ := rep.MeanSlotQuality(650, 780), base.MeanSlotQuality(650, 780); faultQ > 0.2*baseQ {
		t.Errorf("blackout-window quality %.3f vs fault-free %.3f: fault had no bite", faultQ, baseQ)
	}
	// Recovery: the tail window is back within 5% of the fault-free run.
	tailQ := rep.MeanSlotQuality(2400, 3000)
	baseTailQ := base.MeanSlotQuality(2400, 3000)
	if tailQ < 0.95*baseTailQ {
		t.Errorf("tail quality %.3f did not recover to within 5%% of fault-free %.3f",
			tailQ, baseTailQ)
	}
	// The breaker must have closed again well before the horizon: the tail
	// window carries no degraded slots, which the recovery bound above
	// already implies, and the close-transition counter confirms directly.
	if got := reg.Counter("collabvr_breaker_close_transitions_total").Value(); got == 0 {
		t.Error("breaker never closed again after the fault cleared")
	}
}

// TestSimChaosSeedSensitivity: changing only the profile seed changes the
// packet-level fault stream (burst loss), while keeping the run valid.
func TestSimChaosSeedSensitivity(t *testing.T) {
	w, err := Generate(Config{Shape: Steady, Sessions: 4, HorizonSlots: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) *RunReport {
		rep, err := Simulate(w, SimConfig{
			NewAllocator: func() core.Allocator { return core.NewSolverAllocator() },
			Chaos: &chaos.Profile{
				Name: "loss", Seed: seed,
				Faults: []chaos.Fault{{Kind: chaos.FaultLoss, StartSlot: 50, DurationSlots: 300, P: 0.3}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(2)
	if reflect.DeepEqual(a.SlotQuality, b.SlotQuality) {
		t.Error("different chaos seeds produced identical slot-quality series")
	}
}

// TestRunLiveChaosDrain drives the live engine under a blackout profile with
// client reconnect and a graceful drain, and checks nothing leaks: the
// end-to-end resilience path on real sockets.
func TestRunLiveChaosDrain(t *testing.T) {
	baseGoroutines := obs.LeakSnapshot()
	w, err := Generate(Config{Shape: Steady, Sessions: 6, HorizonSlots: 80,
		MeanHoldSec: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	slo := obs.NewSLOMonitor(obs.SLOConfig{WindowSlots: 40, ShortWindowSlots: 10}, reg)
	brk := obs.NewBreaker(obs.BreakerConfig{RecoverySlots: 20, HalfOpenSlots: 10}, reg)
	rep, err := RunLive(w, LiveConfig{
		SlotDuration: 5 * time.Millisecond,
		Metrics:      reg,
		SLO:          slo,
		Breaker:      brk,
		RetryPolicy:  transport.DefaultRetryPolicy(5 * time.Millisecond),
		Reconnect:    true,
		DrainTimeout: 2 * time.Second,
		Chaos: &chaos.Profile{
			Name: "live-blackout", Seed: 5,
			Faults: []chaos.Fault{
				{Kind: chaos.FaultBlackout, StartSlot: 20, DurationSlots: 20},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Failed != rep.Spawned {
		t.Errorf("accounting leak: completed %d + failed %d != spawned %d",
			rep.Completed, rep.Failed, rep.Spawned)
	}
	if rep.Completed == 0 {
		t.Fatal("no session completed under chaos")
	}
	// The blackout must actually have dropped traffic on the wire.
	if got := reg.Counter("collabvr_server_tx_dropped_total").Value(); got == 0 {
		t.Error("blackout dropped no packets on the live transmit path")
	}
	obs.AssertNoLeaks(t, baseGoroutines)
}

// TestRunLiveFleetChaosDrain is TestRunLiveChaosDrain for a live fleet: one
// of two shards is killed mid-run, and the run ends in a fleet drain that
// skips the dead shard and flushes the live one.
func TestRunLiveFleetChaosDrain(t *testing.T) {
	base := obs.LeakSnapshot()
	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	rep, err := RunLiveFleet(liveFleetWorkload(t, 4, 120), FleetLiveConfig{
		Shards: 2,
		Live: LiveConfig{
			SlotDuration: 5 * time.Millisecond,
			BudgetMbps:   300,
			Unshaped:     true,
			DrainTimeout: 2 * time.Second,
			Chaos: &chaos.Profile{
				Name:   "live-kill-drain",
				Seed:   7,
				Faults: []chaos.Fault{{Kind: chaos.FaultShardKill, StartSlot: 40, Shard: 0}},
			},
			Logf: logf,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Failed != rep.Spawned {
		t.Errorf("accounting leak: completed %d + failed %d != spawned %d",
			rep.Completed, rep.Failed, rep.Spawned)
	}
	if rep.Shards[0].KilledSlot != 40 {
		t.Errorf("shard 0 KilledSlot = %d, want 40", rep.Shards[0].KilledSlot)
	}
	mu.Lock()
	defer mu.Unlock()
	drained := 0
	for _, line := range logs {
		switch {
		case strings.Contains(line, "fleet drain timed out"):
			t.Errorf("fleet drain did not flush: %q", line)
		case strings.HasPrefix(line, "server: drained "):
			drained++
			if !strings.HasSuffix(line, "(flushed=true)") {
				t.Errorf("live shard did not flush: %q", line)
			}
		}
	}
	// The killed shard's server is closed: only the live shard drains.
	if drained != 1 {
		t.Errorf("%d shards drained, want the live one only", drained)
	}
	obs.AssertNoLeaks(t, base)
}

// TestSimulateShardFaults: Simulate is the fleet engine at one shard, so a
// profile's fleet faults act on that shard instead of being dropped: a
// brown-out of shard 0 lowers the displayed quality inside its window, and
// a fault on a shard the one-shard fleet does not have is an error.
func TestSimulateShardFaults(t *testing.T) {
	w, err := Generate(Config{Shape: Steady, Sessions: 6, HorizonSlots: 240, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	degrade := func(shard int) *chaos.Profile {
		return &chaos.Profile{Name: "degrade", Seed: 1, Faults: []chaos.Fault{
			{Kind: chaos.FaultShardDegrade, StartSlot: 60, DurationSlots: 120, Shard: shard, Factor: 0.1},
		}}
	}
	if _, err := Simulate(w, SimConfig{Chaos: degrade(1)}); err == nil {
		t.Fatal("a shard_degrade on shard 1 ran without error on the one-shard engine")
	}
	clean := mustSimulate(t, w, SimConfig{})
	faulted := mustSimulate(t, w, SimConfig{Chaos: degrade(0)})
	if faulted.Mode != "sim" {
		t.Errorf("mode %q, want sim", faulted.Mode)
	}
	in, out := faulted.MeanSlotQuality(60, 180), clean.MeanSlotQuality(60, 180)
	t.Logf("slot quality in the brown-out: %.3f, fault-free %.3f", in, out)
	if in >= out {
		t.Errorf("a brown-out of shard 0 left slot quality at %.3f, fault-free %.3f", in, out)
	}
	if a, b := faulted.MeanSlotQuality(0, 60), clean.MeanSlotQuality(0, 60); a != b {
		t.Errorf("slot quality before the brown-out %.3f, fault-free %.3f", a, b)
	}
}

package testbed

import (
	"testing"
	"time"

	"repro/internal/core"
)

// tinySetup is a fast-but-real configuration: 2 users, one router, generous
// capacity, real loopback sockets.
func tinySetup() setup {
	return setup{
		Name:             "tiny",
		Users:            2,
		Routers:          1,
		ServerBudgetMbps: 200,
		Throttles:        []float64{50, 60},
		JitterFrac:       0.05,
		LossProb:         0,
	}
}

func tinyConfig() Config {
	return Config{
		Setup:        tinySetup(),
		Slots:        120,
		SlotDuration: 4 * time.Millisecond,
		Seed:         1,
	}
}

// TestEndToEndPipeline drives the full real-system stack — server slot
// loop, motion prediction, allocation, RTP-over-UDP delivery with shaping,
// client reassembly/decode/display, TCP ACK feedback — and checks the
// integration invariants.
func TestEndToEndPipeline(t *testing.T) {
	res, err := Run(tinyConfig(), "proposed", core.NewSolverAllocator())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerUser) != 2 {
		t.Fatalf("per-user reports = %d, want 2", len(res.PerUser))
	}
	agg := res.Aggregate
	if agg.Quality <= 0 {
		t.Errorf("no quality delivered: %+v", agg)
	}
	if agg.Coverage < 0.5 {
		t.Errorf("coverage %v too low; the delivery pipeline is broken", agg.Coverage)
	}
	if agg.FPSFrac < 0.5 {
		t.Errorf("on-time frame fraction %v too low", agg.FPSFrac)
	}
	if agg.Quality > 6 {
		t.Errorf("quality %v above the ladder maximum", agg.Quality)
	}

	// Server-side counters: tiles flowed and the repetitive-tile
	// suppression engaged (users linger in cells across slots).
	var sent, skipped int
	for _, st := range res.ServerStats {
		sent += st.TilesSent
		skipped += st.TilesSkipped
		if st.SlotsServed == 0 {
			t.Errorf("user %d was never served", st.User)
		}
		if st.MeanLevel < 1 || st.MeanLevel > 6 {
			t.Errorf("user %d mean level %v outside ladder", st.User, st.MeanLevel)
		}
	}
	if sent == 0 {
		t.Fatalf("no tiles sent")
	}
	if skipped == 0 {
		t.Errorf("repetitive-tile suppression never engaged (sent=%d)", sent)
	}
}

// TestThrottledUserGetsLowerQuality checks the bandwidth heterogeneity
// response: a heavily throttled user must converge to a lower quality than
// a generously provisioned one.
func TestThrottledUserGetsLowerQuality(t *testing.T) {
	cfg := tinyConfig()
	cfg.Slots = 200
	cfg.Setup.Throttles = []float64{10} // user 0 and 1 both at 10 first...
	// Assign asymmetric throttles deterministically by overriding after the
	// shuffle would apply: use two values and a fixed seed such that both
	// appear. The generous link stays slow enough (40 Mbps) that a slot's
	// tiles take longer than the server's 0.2 ms minimum goodput window to
	// arrive, so both throughput estimators prime.
	cfg.Setup.Throttles = []float64{8, 40}
	res, err := Run(cfg, "proposed", core.NewSolverAllocator())
	if err != nil {
		t.Fatal(err)
	}
	// With the fixed seed both throttles are assigned; find the spread in
	// server mean levels.
	if len(res.ServerStats) != 2 {
		t.Fatalf("server stats = %d", len(res.ServerStats))
	}
	var estLo, estHi = res.ServerStats[0], res.ServerStats[1]
	if estLo.EstMbps > estHi.EstMbps {
		estLo, estHi = estHi, estLo
	}
	if estLo.EstMbps == 0 || estHi.EstMbps == 0 {
		t.Skip("throughput estimator unprimed in short run")
	}
	if estLo.MeanLevel > estHi.MeanLevel+0.5 {
		t.Errorf("throttled user got higher quality: lo %+v hi %+v", estLo, estHi)
	}
}

// TestRunAllComparesAlgorithms runs the three algorithms of Fig. 7 on the
// tiny setup and sanity-checks the outputs exist and are finite.
func TestRunAllComparesAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("integration comparison in -short mode")
	}
	cfg := tinyConfig()
	cfg.Slots = 100
	results, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	names := map[string]bool{}
	for _, r := range results {
		names[r.Algorithm] = true
		if r.Aggregate.Quality <= 0 {
			t.Errorf("%s delivered no quality", r.Algorithm)
		}
	}
	for _, want := range []string{"proposed", "firefly", "pavq"} {
		if !names[want] {
			t.Errorf("missing algorithm %s", want)
		}
	}
}

// TestLossHandlingImprovesCoverage exercises the Discussion-section
// extension end to end: under heavy packet loss, NACK-driven
// retransmission recovers tiles that plain RTP drops.
func TestLossHandlingImprovesCoverage(t *testing.T) {
	base := tinyConfig()
	base.Slots = 200
	base.Setup.LossProb = 0.25

	plain, err := Run(base, "proposed", core.NewSolverAllocator())
	if err != nil {
		t.Fatal(err)
	}
	withNack := base
	withNack.LossHandling = true
	recovered, err := Run(withNack, "proposed", core.NewSolverAllocator())
	if err != nil {
		t.Fatal(err)
	}

	if recovered.Aggregate.Coverage < plain.Aggregate.Coverage-0.02 {
		t.Errorf("loss handling reduced coverage: %v -> %v",
			plain.Aggregate.Coverage, recovered.Aggregate.Coverage)
	}
	var retransmits int
	for _, st := range recovered.ServerStats {
		retransmits += st.Retransmits
	}
	if retransmits == 0 {
		t.Errorf("no NACK retransmissions at 25%% loss")
	}
	t.Logf("coverage without NACK %.3f, with NACK %.3f (%d retransmits)",
		plain.Aggregate.Coverage, recovered.Aggregate.Coverage, retransmits)
}

func TestRunValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Slots = 0
	if _, err := Run(cfg, "x", core.NewSolverAllocator()); err == nil {
		t.Error("zero slots should error")
	}
	cfg = tinyConfig()
	cfg.Setup.Users = 0
	if _, err := Run(cfg, "x", core.NewSolverAllocator()); err == nil {
		t.Error("zero users should error")
	}
}

func TestSetupPresets(t *testing.T) {
	s1, s2 := Setup1(), Setup2()
	if s1.Users != 8 || s1.Routers != 1 || s1.ServerBudgetMbps != 400 {
		t.Errorf("setup1 = %+v", s1)
	}
	if s2.Users != 15 || s2.Routers != 2 || s2.ServerBudgetMbps != 800 {
		t.Errorf("setup2 = %+v", s2)
	}
	if s2.JitterFrac <= s1.JitterFrac {
		t.Errorf("setup2 should be noisier than setup1")
	}
}

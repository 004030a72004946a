package sim

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// smallConfig keeps tests fast: 3 users, 5 seconds, 3 runs.
func smallConfig() Config {
	cfg := DefaultConfig(3)
	cfg.Seconds = 5
	cfg.Runs = 3
	return cfg
}

func TestRunProducesSamplesPerAlgorithm(t *testing.T) {
	cfg := smallConfig()
	algs := StandardAlgorithms(true)
	results, err := Run(cfg, algs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(algs) {
		t.Fatalf("results = %d, want %d", len(results), len(algs))
	}
	wantSamples := cfg.Runs * cfg.Users
	for _, r := range results {
		if len(r.QoE) != wantSamples {
			t.Errorf("%s: %d QoE samples, want %d", r.Name, len(r.QoE), wantSamples)
		}
		if len(r.Quality) != wantSamples || len(r.Delay) != wantSamples || len(r.Variance) != wantSamples {
			t.Errorf("%s: component sample counts inconsistent", r.Name)
		}
		for i, q := range r.Quality {
			if q < 0 || q > 6 {
				t.Errorf("%s: quality sample %d = %v outside [0, 6]", r.Name, i, q)
			}
		}
		for i, d := range r.Delay {
			if d < 0 {
				t.Errorf("%s: negative delay sample %d", r.Name, i)
			}
		}
		for i, v := range r.Variance {
			if v < 0 {
				t.Errorf("%s: negative variance sample %d", r.Name, i)
			}
		}
	}
}

func TestRunDeterministicForSameSeed(t *testing.T) {
	cfg := smallConfig()
	cfg.Runs = 2
	algs := []algorithmFactory{{Name: "proposed", New: func() core.Allocator { return core.NewSolverAllocator() }}}
	a, err := Run(cfg, algs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, algs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a[0].QoE, b[0].QoE) {
		t.Fatalf("nondeterministic QoE samples: %v vs %v", a[0].QoE, b[0].QoE)
	}
}

// TestProposedTracksOptimal is the core Fig. 2 claim: Algorithm 1's mean QoE
// is within a few percent of the per-slot optimum.
func TestProposedTracksOptimal(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 4
	cfg.Runs = 4
	cfg.Seconds = 10
	results, err := Run(cfg, StandardAlgorithms(true))
	if err != nil {
		t.Fatal(err)
	}
	byName := indexResults(results)
	proposed := metrics.NewCDF(byName["proposed"].QoE).Mean()
	optimal := metrics.NewCDF(byName["optimal"].QoE).Mean()
	if optimal <= 0 {
		t.Skipf("optimal mean QoE %v <= 0; scenario degenerate", optimal)
	}
	if proposed < 0.9*optimal {
		t.Errorf("proposed %v below 90%% of optimal %v", proposed, optimal)
	}
	if proposed > optimal+1e-9 {
		t.Logf("note: proposed %v above per-slot optimal %v (possible: optimal is per-slot, QoE is horizon-coupled)", proposed, optimal)
	}
}

// TestProposedBeatsBaselines is the Fig. 2a/3a ordering: proposed >= PAVQ
// and proposed > Firefly in mean QoE.
func TestProposedBeatsBaselines(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Seconds = 12
	cfg.Runs = 6
	cfg.IncludeOptimal = false
	results, err := Run(cfg, StandardAlgorithms(false))
	if err != nil {
		t.Fatal(err)
	}
	byName := indexResults(results)
	proposed := metrics.NewCDF(byName["proposed"].QoE).Mean()
	firefly := metrics.NewCDF(byName["firefly"].QoE).Mean()
	pavq := metrics.NewCDF(byName["pavq"].QoE).Mean()
	if proposed <= firefly {
		t.Errorf("proposed %v should beat firefly %v", proposed, firefly)
	}
	if proposed < pavq-0.05 {
		t.Errorf("proposed %v should be at least competitive with pavq %v", proposed, pavq)
	}
}

// TestProposedReducesVarianceAndDelay mirrors Figs. 2c/2d: against Firefly,
// the proposed algorithm trades some raw quality for lower delay and lower
// quality variance.
func TestProposedReducesVarianceAndDelay(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Seconds = 12
	cfg.Runs = 6
	cfg.IncludeOptimal = false
	results, err := Run(cfg, StandardAlgorithms(false))
	if err != nil {
		t.Fatal(err)
	}
	byName := indexResults(results)
	pVar := metrics.NewCDF(byName["proposed"].Variance).Mean()
	fVar := metrics.NewCDF(byName["firefly"].Variance).Mean()
	if pVar > fVar {
		t.Errorf("proposed variance %v should not exceed firefly %v", pVar, fVar)
	}
	pDelay := metrics.NewCDF(byName["proposed"].Delay).Mean()
	fDelay := metrics.NewCDF(byName["firefly"].Delay).Mean()
	if pDelay > fDelay {
		t.Errorf("proposed delay %v should not exceed firefly %v", pDelay, fDelay)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 0
	if _, err := Run(cfg, StandardAlgorithms(false)); err == nil {
		t.Error("zero users should error")
	}
	cfg = smallConfig()
	cfg.Seconds = 0
	if _, err := Run(cfg, StandardAlgorithms(false)); err == nil {
		t.Error("zero seconds should error")
	}
	cfg = smallConfig()
	if _, err := Run(cfg, nil); err == nil {
		t.Error("no algorithms should error")
	}
}

func TestResultCDFs(t *testing.T) {
	cfg := smallConfig()
	results, err := Run(cfg, StandardAlgorithms(false)[:1])
	if err != nil {
		t.Fatal(err)
	}
	qoe, quality, delay, variance := results[0].CDFs()
	for _, c := range []*metrics.CDF{qoe, quality, delay, variance} {
		if c.Len() != cfg.Runs*cfg.Users {
			t.Errorf("CDF has %d samples, want %d", c.Len(), cfg.Runs*cfg.Users)
		}
	}
}

func indexResults(results []*Result) map[string]*Result {
	m := make(map[string]*Result, len(results))
	for _, r := range results {
		m[r.Name] = r
	}
	return m
}

func TestRecorderCapturesEverySlotWithRegret(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 5
	cfg.Seconds = 2
	cfg.Runs = 2
	cfg.IncludeOptimal = true
	rec := obs.NewRecorder(obs.RecorderOptions{RingSize: 16})
	cfg.Recorder = rec

	algs := StandardAlgorithms(true)
	if _, err := Run(cfg, algs); err != nil {
		t.Fatal(err)
	}

	slots := int(cfg.Seconds * slotsPerSecond)
	want := uint64(slots * cfg.Runs * len(algs))
	if got := rec.Records(); got != want {
		t.Fatalf("records = %d, want %d (one per slot per algorithm per run)", got, want)
	}

	s := rec.Summary()
	if len(s.Algorithms) != len(algs) {
		t.Fatalf("summary algorithms = %d, want %d", len(s.Algorithms), len(algs))
	}
	byName := map[string]obs.AlgorithmSummary{}
	for _, a := range s.Algorithms {
		byName[a.Name] = a
	}
	for _, a := range s.Algorithms {
		if a.Slots != slots*cfg.Runs {
			t.Errorf("%s slots = %d, want %d", a.Name, a.Slots, slots*cfg.Runs)
		}
		// Every slot ran alongside the optimum, so regret is defined and
		// nonnegative everywhere.
		if a.RegretSlots != a.Slots {
			t.Errorf("%s regret slots = %d, want %d", a.Name, a.RegretSlots, a.Slots)
		}
		if a.MeanRegret < 0 || a.MaxRegret < a.MeanRegret {
			t.Errorf("%s regret stats inconsistent: %+v", a.Name, a)
		}
	}
	opt, prop := byName["optimal"], byName["proposed"]
	if opt.MeanRegret > 1e-9 || opt.MaxRegret > 1e-9 {
		t.Errorf("optimal has nonzero regret: %+v", opt)
	}
	// Theorem 1: Algorithm 1 achieves at least half the optimum, so its
	// mean regret cannot exceed half the optimum's mean value.
	if opt.MeanValue > 0 && prop.MeanRegret > 0.5*opt.MeanValue {
		t.Errorf("proposed mean regret %v breaks the 1/2-approximation bound (optimal mean value %v)",
			prop.MeanRegret, opt.MeanValue)
	}
	if prop.Upgrades == 0 {
		t.Error("proposed recorded no accepted upgrades")
	}
	if prop.RejectsUserCap+prop.RejectsBudget == 0 {
		t.Error("proposed recorded no quality_verification rejections")
	}

	// Spot-check record structure off the ring.
	for _, r := range rec.Recent(16) {
		if len(r.Levels) != cfg.Users {
			t.Fatalf("record levels = %v, want %d entries", r.Levels, cfg.Users)
		}
		if r.Utilization < 0 || r.Utilization > 1+1e-9 {
			t.Errorf("utilization = %v outside [0,1]", r.Utilization)
		}
		if !r.HasRegret || r.Regret < 0 {
			t.Errorf("record regret = %+v", r)
		}
		if r.Algorithm == "proposed" && r.Branch != "density" && r.Branch != "value" {
			t.Errorf("proposed record branch = %q", r.Branch)
		}
	}
}

func TestRecorderDisabledMatchesEnabledResults(t *testing.T) {
	cfg := smallConfig()
	base, err := Run(cfg, StandardAlgorithms(false))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = obs.NewRecorder(obs.RecorderOptions{RingSize: 8})
	traced, err := Run(cfg, StandardAlgorithms(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if len(base[i].QoE) != len(traced[i].QoE) {
			t.Fatalf("sample counts differ for %s", base[i].Name)
		}
		for j := range base[i].QoE {
			if base[i].QoE[j] != traced[i].QoE[j] {
				t.Fatalf("%s QoE[%d] differs with tracing: %v vs %v",
					base[i].Name, j, base[i].QoE[j], traced[i].QoE[j])
			}
		}
	}
}

// Run splits its runs across GOMAXPROCS participants; the merged sample
// vectors must not depend on how many there are or which finishes first,
// and Run leaves no goroutine behind.
func TestRunIdenticalAcrossGOMAXPROCS(t *testing.T) {
	cfg := smallConfig()
	cfg.Seconds = 2
	cfg.Runs = 8
	var ref []*Result
	base := obs.LeakSnapshot()
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := Run(cfg, StandardAlgorithms(false))
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		obs.AssertNoLeaks(t, base)
		if ref == nil {
			ref = got
		} else if !reflect.DeepEqual(got, ref) {
			t.Fatalf("results at GOMAXPROCS %d differ from GOMAXPROCS 1", procs)
		}
	}
}

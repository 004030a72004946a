package load

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// relowering hides the engine's pre-lowered value table from the production
// allocator, forcing it to recompute the table on the serial path as it did
// before the build wrote it. It counts the problems that carried a table so
// a differential cannot pass by comparing the fallback with itself; the
// fleet engine's shards solve concurrently, one wrapper each, all counting
// into the one total.
type relowering struct {
	inner      *core.SolverAllocator
	t          *testing.T
	preLowered *atomic.Int64
}

func (a relowering) strip(params core.Params, p *core.SlotProblem) *core.SlotProblem {
	if err := p.Validate(params); err != nil {
		a.t.Errorf("engine built an invalid slot problem: %v", err)
	}
	if len(p.Values) != 0 {
		a.preLowered.Add(1)
	}
	q := *p
	q.Values = nil
	return &q
}

func (a relowering) Name() string { return a.inner.Name() }

func (a relowering) Allocate(params core.Params, p *core.SlotProblem) core.Allocation {
	return a.inner.Allocate(params, a.strip(params, p))
}

func (a relowering) AllocateShared(params core.Params, p *core.SlotProblem) core.Allocation {
	return a.inner.AllocateShared(params, a.strip(params, p))
}

func (a relowering) AllocateTraced(params core.Params, p *core.SlotProblem, tr *core.SlotTrace) core.Allocation {
	return a.inner.AllocateTraced(params, a.strip(params, p), tr)
}

var (
	_ core.SharedAllocator  = relowering{}
	_ core.TracingAllocator = relowering{}
)

// preLoweredCases runs fn over the engine settings the pre-lowered table
// must be invisible under: serial and sharded builds, recorder off (the
// shared-allocation path) and on (the traced path). fn gets the base config
// twice, the second time behind the relowering wrapper.
func preLoweredCases(t *testing.T, fn func(direct, relowered SimConfig) (a, b any)) {
	for _, workers := range []int{1, 4} {
		for _, record := range []bool{false, true} {
			var preLowered atomic.Int64
			base := func() SimConfig {
				cfg := SimConfig{Workers: workers, Chaos: campaignChaos(), AllocName: "proposed"}
				if record {
					cfg.Recorder = obs.NewRecorder(obs.RecorderOptions{RingSize: 64})
					cfg.CounterfactualK = 2
				}
				return cfg
			}
			direct, relowered := base(), base()
			direct.NewAllocator = func() core.Allocator { return core.NewSolverAllocator() }
			relowered.NewAllocator = func() core.Allocator {
				return relowering{inner: core.NewSolverAllocator(), t: t, preLowered: &preLowered}
			}
			a, b := fn(direct, relowered)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("workers %d, recorder %v: report differs when the allocator re-lowers", workers, record)
			}
			if record && !reflect.DeepEqual(direct.Recorder.Recent(64), relowered.Recorder.Recent(64)) {
				t.Errorf("workers %d: decision records differ when the allocator re-lowers", workers)
			}
			if preLowered.Load() == 0 {
				t.Errorf("workers %d, recorder %v: the engine never handed over a value table", workers, record)
			}
		}
	}
}

// TestSimPreLoweredMatchesRecomputed: the value table the build shards write
// must be exactly what the allocator would have computed itself.
func TestSimPreLoweredMatchesRecomputed(t *testing.T) {
	w := churnWorkload(t, 600, 400, 23)
	preLoweredCases(t, func(direct, relowered SimConfig) (any, any) {
		return mustSimulate(t, w, direct), mustSimulate(t, w, relowered)
	})
}

// TestFleetPreLoweredMatchesRecomputed is the same differential through the
// fleet engine, whose shards each fill their own value slab.
func TestFleetPreLoweredMatchesRecomputed(t *testing.T) {
	w := churnWorkload(t, 300, 400, 29)
	preLoweredCases(t, func(direct, relowered SimConfig) (any, any) {
		run := func(sim SimConfig) *FleetReport {
			sim.Chaos = shardKillProfile(150, 1)
			rep, err := SimulateFleet(w, FleetSimConfig{Sim: sim, Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		return run(direct), run(relowered)
	})
}

// TestSimulateSteadyStateAllocs gates the slot loop's allocation rate: on
// the same sessions, the slots a doubled horizon adds may cost at most 0.05
// heap allocations per session-slot (the per-slot goroutines of the sharded
// build, spread over the active set). Set-up allocations are per session and
// cancel in the difference.
func TestSimulateSteadyStateAllocs(t *testing.T) {
	const sessions, horizon = 400, 90
	mallocs := func(h int) uint64 {
		w, err := Generate(Config{Shape: Steady, Seed: 3, Sessions: sessions, HorizonSlots: h})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustSimulate(t, w, SimConfig{Workers: 2})
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	mallocs(horizon) // warm the runtime's own pools
	short, long := mallocs(horizon), mallocs(2*horizon)
	perSlot := (float64(long) - float64(short)) / float64(sessions*horizon)
	t.Logf("mallocs: %d over %d slots, %d over %d: %.4f per added session-slot", short, horizon, long, 2*horizon, perSlot)
	if perSlot > 0.05 {
		t.Errorf("steady-state slot loop allocates %.3f times per session-slot, want <= 0.05", perSlot)
	}
}

// TestSimulateFleetSteadyStateAllocs is the same gate for the fleet engine
// on a churning workload with the whole control plane on: the slots a
// doubled horizon adds may cost at most 0.21 heap allocations per added
// session-slot. Unlike Simulate's gate the bound includes the arrivals of
// the added slots (about 30 allocations per session set-up, a session every
// 180 session-slots here), which is most of it; the per-slot fork-join and
// the coordinator log are the rest.
func TestSimulateFleetSteadyStateAllocs(t *testing.T) {
	const horizon = 300
	measure := func(h int) (mallocs uint64, slots int) {
		w, mk := churnBenchConfig(t, h)
		cfg := mk()
		cfg.Sim.Workers = 2
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := SimulateFleet(w, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, sessionSlots(w)
	}
	measure(horizon) // warm the runtime's own pools
	short, shortSlots := measure(horizon)
	long, longSlots := measure(2 * horizon)
	perSlot := (float64(long) - float64(short)) / float64(longSlots-shortSlots)
	t.Logf("mallocs: %d over %d session-slots, %d over %d: %.4f per added session-slot", short, shortSlots, long, longSlots, perSlot)
	if perSlot > 0.21 {
		t.Errorf("steady-state fleet slot loop allocates %.3f times per session-slot, want <= 0.21", perSlot)
	}
}

// denseBenchConfig is the repository benchmark's sim_dense workload
// (bench/workloads.go) rebuilt from this package: 4000 steady sessions under
// an 18 Mbps-per-session budget, which binds (the mean level sits near 1.4,
// so the greedy does real upgrade work every slot), on the default allocator
// and worker count.
func denseBenchConfig(tb testing.TB, seed int64, horizon int) (*Workload, SimConfig) {
	const sessions = 4000
	w, err := Generate(Config{Shape: Steady, Seed: seed, Sessions: sessions, HorizonSlots: horizon})
	if err != nil {
		tb.Fatal(err)
	}
	return w, SimConfig{BudgetMbps: 18 * sessions, AllocName: "proposed"}
}

// BenchmarkSimulateDense is the working loop for the single-server engine:
// one pass of sim_dense (240 slots, seed 11) per iteration, reported as
// session-slots per second like BenchmarkSimulateFleetChurn.
//
//	go test -run '^$' -bench SimulateDense -cpu 1,2 ./internal/load
func BenchmarkSimulateDense(b *testing.B) {
	w, cfg := denseBenchConfig(b, 11, 240)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sessionSlots(w))*float64(b.N)/b.Elapsed().Seconds(), "session-slots/s")
}

// Package repro's benchmark harness regenerates every figure of the paper's
// evaluation as a testing.B benchmark. Each benchmark runs the figure's
// workload and reports the headline quantity (mean QoE, mean RTT, ...) via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as the experiment
// driver. Benchmark sizes are scaled down from the paper's (300 s x 100
// runs) so a full sweep stays laptop-friendly; cmd/collabvr-figures -full
// runs the paper-scale versions.
package repro

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/tiles"
)

// BenchmarkFig1aTileSize regenerates Fig. 1a: the convex tile-size-vs-
// quality curves of the content size model.
func BenchmarkFig1aTileSize(b *testing.B) {
	model := tiles.NewSizeModel(1)
	var sum float64
	for i := 0; i < b.N; i++ {
		cell := tiles.CellID{X: int32(i % 100), Z: int32(i % 37)}
		for q := 1; q <= tiles.Levels; q++ {
			sum += model.TileRate(cell, tiles.TileID(i%4), q)
		}
	}
	b.ReportMetric(sum/float64(b.N)/tiles.Levels, "meanMbps")
}

// BenchmarkFig1bRTT regenerates Fig. 1b: RTT samples from the M/M/1 queue
// under a 15 Mbps cap at a 12 Mbps sending rate.
func BenchmarkFig1bRTT(b *testing.B) {
	q := netem.NewQueueSim(15)
	rng := rand.New(rand.NewSource(1))
	var mean float64
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, s := range q.RTTSamples(12, 5000, rng) {
			sum += s
		}
		mean = sum / 5000
	}
	b.ReportMetric(mean, "meanRTTms")
}

// benchSim runs one scaled-down Section IV campaign and reports the mean
// QoE of the proposed algorithm.
func benchSim(b *testing.B, users int, includeOptimal bool) {
	b.Helper()
	cfg := sim.DefaultConfig(users)
	cfg.Seconds = 5
	cfg.Runs = 2
	cfg.IncludeOptimal = includeOptimal
	var qoe float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		results, err := sim.Run(cfg, sim.StandardAlgorithms(cfg.IncludeOptimal))
		if err != nil {
			b.Fatal(err)
		}
		qoe = metrics.NewCDF(results[0].QoE).Mean()
	}
	b.ReportMetric(qoe, "proposedQoE")
}

// BenchmarkFig2Sim5Users regenerates Fig. 2: the 5-user trace-based
// simulation including the brute-force per-slot optimum.
func BenchmarkFig2Sim5Users(b *testing.B) { benchSim(b, 5, true) }

// BenchmarkFig3Sim30Users regenerates Fig. 3: the 30-user trace-based
// simulation (no brute force at this scale).
func BenchmarkFig3Sim30Users(b *testing.B) { benchSim(b, 30, false) }

// benchTestbed runs one scaled-down Section VI real-system experiment (live
// loopback sockets) with the proposed algorithm and reports its QoE.
func benchTestbed(b *testing.B, cfg testbed.Config) {
	b.Helper()
	cfg.Slots = 150
	cfg.SlotDuration = 4 * time.Millisecond
	cfg.Params = core.DefaultSystemParams()
	var qoe float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := testbed.Run(cfg, "proposed", core.NewSolverAllocator())
		if err != nil {
			b.Fatal(err)
		}
		qoe = res.Aggregate.QoE
	}
	b.ReportMetric(qoe, "proposedQoE")
}

// BenchmarkFig7Testbed8Users regenerates Fig. 7: setup 1 (8 users behind
// one router) on the in-process real-system testbed.
func BenchmarkFig7Testbed8Users(b *testing.B) {
	benchTestbed(b, testbed.Config{Setup: testbed.Setup1()})
}

// BenchmarkFig8Testbed15Users regenerates Fig. 8: setup 2 (15 users behind
// two routers with interference) on the in-process testbed.
func BenchmarkFig8Testbed15Users(b *testing.B) {
	benchTestbed(b, testbed.Config{Setup: testbed.Setup2()})
}

// benchProblem builds a representative 30-user per-slot allocation problem.
func benchProblem(rng *rand.Rand, users int) *core.SlotProblem {
	ladder := []float64{8, 13, 21, 34, 55, 89}
	ins := make([]core.UserInput, users)
	for i := range ins {
		scale := 0.6 + rng.Float64()
		cap_ := 20 + rng.Float64()*80
		rates := make([]float64, len(ladder))
		for q, r := range ladder {
			rates[q] = r * scale
		}
		delay := make([]float64, len(rates))
		netem.DelayTableMsInto(delay, rates, cap_, 1000.0/60)
		ins[i] = core.UserInput{
			Rate:  rates,
			Delay: delay,
			Delta: 0.8 + rng.Float64()*0.2,
			MeanQ: rng.Float64() * 6,
			Cap:   cap_,
		}
	}
	return &core.SlotProblem{T: 100, Budget: 36 * float64(users), Users: ins}
}

// BenchmarkAllocatorPerSlot measures the per-slot decision cost of each
// algorithm at the paper's 30-user scale — the number that determines
// whether the allocator fits in a 16.7 ms slot.
func BenchmarkAllocatorPerSlot(b *testing.B) {
	params := core.DefaultSimParams()
	algs := []struct {
		name string
		mk   func() core.Allocator
	}{
		{"dvgreedy", func() core.Allocator { return core.NewSolverAllocator() }},
		{"density", func() core.Allocator { return core.DensityOnly{} }},
		{"value", func() core.Allocator { return core.ValueOnly{} }},
		{"firefly", func() core.Allocator { return baseline.NewFirefly() }},
		{"pavq", func() core.Allocator { return baseline.NewPAVQ() }},
	}
	for _, a := range algs {
		b.Run(a.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			p := benchProblem(rng, 30)
			alloc := a.mk()
			b.ResetTimer()
			var value float64
			for i := 0; i < b.N; i++ {
				value = alloc.Allocate(params, p).Value
			}
			b.ReportMetric(value, "objective")
		})
	}
}

// BenchmarkOptimalPerSlot measures the brute-force optimum at the 5-user
// scale where the paper uses it (L^N assignments).
func BenchmarkOptimalPerSlot(b *testing.B) {
	params := core.DefaultSimParams()
	rng := rand.New(rand.NewSource(1))
	p := benchProblem(rng, 5)
	b.ResetTimer()
	var value float64
	for i := 0; i < b.N; i++ {
		value = core.Optimal{}.Allocate(params, p).Value
	}
	b.ReportMetric(value, "objective")
}

// BenchmarkObsDisabledOverhead measures the disabled observability path: a
// nil registry/recorder must cost a pointer check per event and 0 allocs/op,
// so every pipeline layer can stay instrumented unconditionally. Measured:
// ~1 ns/op, 0 B/op, 0 allocs/op (see also internal/obs/obs_bench_test.go
// for the per-instrument breakdown).
func BenchmarkObsDisabledOverhead(b *testing.B) {
	var reg *obs.Registry
	var rec *obs.Recorder
	c := reg.Counter("collabvr_server_slots_total")
	h := reg.Histogram("collabvr_server_slot_decision_ms", obs.DefaultLatencyBuckets())
	slot := &obs.SlotRecord{Algorithm: "proposed", Levels: []int{1, 2, 3, 4, 5}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(float64(i % 16))
		if rec.Enabled() {
			b.Fatal("nil recorder enabled")
		}
		rec.Record(slot)
	}
}

// BenchmarkTheorem1Gap measures how close Algorithm 1 lands to the
// fractional upper bound V_p across random instances (Theorem 1 guarantees
// at least half).
func BenchmarkTheorem1Gap(b *testing.B) {
	params := core.DefaultSimParams()
	rng := rand.New(rand.NewSource(1))
	alloc := core.NewSolverAllocator()
	var ratio float64
	for i := 0; i < b.N; i++ {
		p := benchProblem(rng, 8)
		got := alloc.Allocate(params, p)
		if vp := core.FractionalUpperBound(params, p); vp > 0 {
			ratio = got.Value / vp
		}
	}
	b.ReportMetric(ratio, "ratioToVp")
}

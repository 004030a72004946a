package load

// Golden digests of what the virtual-time engine computes at one shard
// (Simulate) and at three (SimulateFleet) on a small churned workload under a
// chaos profile with every recorder on: the report, the decision SlotRecord
// stream, the virtual span stream (one shard) and the placement records
// (three). Every float enters the digest by bit pattern. Recorded when the
// two were separate engines, at the commit before the slot step was merged
// into internal/step; regenerate only for a deliberate behaviour change:
//
//	go test ./internal/load -run TestGoldenSim -update-golden

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata/golden_sim.json")

const goldenPath = "testdata/golden_sim.json"

// bitDigest hashes v structurally: floats by bit pattern, ints widened to 64
// bits, strings and slices length-prefixed, exported struct fields in
// declaration order (maps and unexported state are not report content).
func bitDigest(v any) string {
	h := sha256.New()
	digestValue(h, reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))
}

func digestValue(h hash.Hash, v reflect.Value) {
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Float64, reflect.Float32:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				digestValue(h, v.Field(i))
			}
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		digestValue(h, v.Elem())
	default:
		panic(fmt.Sprintf("bitDigest: unsupported kind %s", v.Kind()))
	}
}

// goldenWorkload is the pinned churned workload: Poisson arrivals,
// exponential holds, sessions arriving and departing throughout the horizon.
func goldenWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := Generate(Config{Shape: Poisson, Seed: 23, HorizonSlots: 360, RatePerSec: 8, MeanHoldSec: 2})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// goldenSimConfig turns everything on: a budget tight enough to bind, a
// chaos profile covering every session- and server-scoped fault the virtual
// engines model, SLO + breaker, decision recording with counterfactuals and
// the DP regret reference, and virtual spans.
func goldenSimConfig(faults ...chaos.Fault) SimConfig {
	bcfg := obs.DefaultBreakerConfig()
	bcfg.Levels = core.DefaultSystemParams().Levels
	return SimConfig{
		AllocName:        "proposed",
		BudgetMbps:       260,
		SLO:              obs.NewSLOMonitor(obs.SLOConfig{WindowSlots: 120, ShortWindowSlots: 30}, nil),
		Breaker:          obs.NewBreaker(bcfg, nil),
		Recorder:         obs.NewRecorder(obs.RecorderOptions{RingSize: 4096}),
		CounterfactualK:  2,
		RegretRef:        true,
		RegretResolution: 2,
		Tracer:           trace.New(trace.Options{Exporter: trace.NewExporter(trace.ExporterOptions{RingSize: 1 << 16})}),
		TraceEpoch:       9,
		Chaos: &chaos.Profile{Name: "golden", Seed: 5, Faults: append([]chaos.Fault{
			{Kind: chaos.FaultBandwidth, StartSlot: 40, DurationSlots: 60, Factor: 0.4},
			{Kind: chaos.FaultLoss, StartSlot: 90, DurationSlots: 50, P: 0.1},
			{Kind: chaos.FaultBurstLoss, StartSlot: 150, DurationSlots: 40, PGoodBad: 0.1, PBadGood: 0.3, PBad: 0.7},
			{Kind: chaos.FaultBlackout, StartSlot: 200, DurationSlots: 30, Sessions: []uint32{3, 5, 8, 13}},
			{Kind: chaos.FaultStall, StartSlot: 250, DurationSlots: 20, DelayMs: 12},
			{Kind: chaos.FaultSlowACK, StartSlot: 260, DurationSlots: 20, DelayMs: 9},
		}, faults...)},
	}
}

func goldenSimulate(t *testing.T) map[string]string {
	cfg := goldenSimConfig()
	rep, err := Simulate(goldenWorkload(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DegradedSlots == 0 || rep.AggregateMissRate() == 0 {
		t.Fatalf("golden run exercises nothing: degraded %d, miss rate %v", rep.DegradedSlots, rep.AggregateMissRate())
	}
	if d := cfg.Recorder.Dropped(); d != 0 {
		t.Fatalf("decision ring dropped %d records", d)
	}
	spans := cfg.Tracer.Exporter().Recent(1 << 16)
	if len(spans) == 0 || len(spans) == 1<<16 {
		t.Fatalf("%d spans: none, or the ring overflowed", len(spans))
	}
	// The decide span ends at the measured wall time of the solve — the one
	// non-virtual number in a virtual-time run — so its end is left out.
	for i := range spans {
		if spans[i].Stage == trace.StageDecide {
			spans[i].EndNs = 0
		}
	}
	return map[string]string{
		"report":  bitDigest(rep),
		"records": bitDigest(cfg.Recorder.Recent(4096)),
		"spans":   bitDigest(spans),
	}
}

func goldenSimulateFleet(t *testing.T) map[string]string {
	cfg := FleetSimConfig{
		Shards:       3,
		Coordinators: 3,
		Recorder:     obs.NewPlacementRecorder(obs.PlacementRecorderOptions{RingSize: 1024}),
		Sim: goldenSimConfig(
			chaos.Fault{Kind: chaos.FaultShardDegrade, StartSlot: 100, DurationSlots: 80, Shard: 1, Factor: 0.3},
			chaos.Fault{Kind: chaos.FaultShardDrain, StartSlot: 180, DurationSlots: 60, Shard: 0},
			chaos.Fault{Kind: chaos.FaultCoordKill, StartSlot: 182, DurationSlots: 40, Replica: 0},
			chaos.Fault{Kind: chaos.FaultShardKill, StartSlot: 300, Shard: 2},
		),
	}
	// The simulate entry already pins the tally's spans (one shard, the same
	// code), and this entry predates the fleet's spans: it has no spans
	// digest to hold them to.
	cfg.Sim.Tracer = nil
	rep, err := SimulateFleet(goldenWorkload(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations == 0 || rep.OutageSlots == 0 {
		t.Fatalf("golden fleet run exercises nothing: migrations %d, outage slots %d", rep.Migrations, rep.OutageSlots)
	}
	if d := cfg.Sim.Recorder.Dropped(); d != 0 {
		t.Fatalf("decision ring dropped %d records", d)
	}
	return map[string]string{
		"report":     bitDigest(rep),
		"records":    bitDigest(cfg.Sim.Recorder.Recent(4096)),
		"placements": bitDigest(cfg.Recorder.Recent(1024)),
	}
}

func TestGoldenSim(t *testing.T) {
	got := map[string]map[string]string{
		"simulate":       goldenSimulate(t),
		"simulate_fleet": goldenSimulateFleet(t),
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for engine, digests := range want {
			for name, d := range digests {
				if got[engine][name] != d {
					t.Errorf("%s %s: digest %s, golden %s", engine, name, got[engine][name], d)
				}
			}
		}
		if !t.Failed() {
			t.Errorf("digest key sets differ: got %v, want %v", got, want)
		}
	}
}

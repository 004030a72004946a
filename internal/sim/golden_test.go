package sim

// Golden digests of what sim.Run computes: per-algorithm sample vectors and
// the flight recorder's SlotRecord stream, in the paper's perfect-knowledge
// mode and under imperfect estimation. Every float enters the digest by bit
// pattern, so a refactor of the slot step that moves one ulp anywhere fails
// here. Recorded at the commit before the slot step was merged into
// internal/step; regenerate only for a deliberate behaviour change:
//
//	go test ./internal/sim -run TestGoldenRun -update-golden

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
	"sort"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata/golden_run.json")

const goldenPath = "testdata/golden_run.json"

// bitDigest hashes v structurally: floats by bit pattern, ints widened to 64
// bits, strings and slices length-prefixed, struct fields in declaration
// order.
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
			digestValue(h, v.Field(i))
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

// goldenRun runs the pinned campaign and digests its results and records.
// Runs finish in any order on a multi-core box, so the record stream is put
// in run order (within a run it is algorithm-major, slot-minor, as emitted).
func goldenRun(t *testing.T, estimateAlpha float64) map[string]string {
	t.Helper()
	cfg := DefaultConfig(5)
	cfg.Seconds = 10
	cfg.Runs = 2
	cfg.Seed = 3
	cfg.EstimateAlpha = estimateAlpha
	cfg.EstimateNoise = 0.2
	cfg.CounterfactualK = 2
	algs := StandardAlgorithms(true)
	slots := int(cfg.Seconds * slotsPerSecond)
	ring := cfg.Runs * slots * len(algs)
	cfg.Recorder = obs.NewRecorder(obs.RecorderOptions{RingSize: ring})
	results, err := Run(cfg, algs)
	if err != nil {
		t.Fatal(err)
	}
	records := cfg.Recorder.Recent(ring)
	if len(records) != ring {
		t.Fatalf("%d records, want %d", len(records), ring)
	}
	sort.SliceStable(records, func(i, j int) bool { return records[i].Run < records[j].Run })
	out := map[string]string{"records": bitDigest(records)}
	for _, r := range results {
		out["result/"+r.Name] = bitDigest(r)
	}
	return out
}

func TestGoldenRun(t *testing.T) {
	got := map[string]map[string]string{
		"perfect":  goldenRun(t, 0),
		"estimate": goldenRun(t, 0.2),
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
		for mode, digests := range want {
			for name, d := range digests {
				if got[mode][name] != d {
					t.Errorf("%s %s: digest %s, golden %s", mode, name, got[mode][name], d)
				}
			}
		}
		if !t.Failed() {
			t.Errorf("digest key sets differ: got %v, want %v", got, want)
		}
	}
}

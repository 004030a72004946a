package sim

import (
	"testing"

	"repro/internal/trace"
)

// TestRunEmitsSpansForFirstRunOnly checks the campaign engine's span
// contract: only run 0 is traced (other runs are statistical repeats), the
// span count is exactly one decide/send/recv/display quartet per
// (algorithm, user, slot), and the per-algorithm epoch salt keeps replays
// over identical inputs in disjoint trace spaces.
func TestRunEmitsSpansForFirstRunOnly(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Seconds = 0.5
	cfg.Runs = 3
	cfg.IncludeOptimal = false
	tracer := trace.New(trace.Options{Exporter: trace.NewExporter(trace.ExporterOptions{RingSize: 1 << 12})})
	cfg.Tracer = tracer
	cfg.TraceEpoch = 4

	algos := StandardAlgorithms(false)[:2]
	if _, err := Run(cfg, algos); err != nil {
		t.Fatal(err)
	}

	spans := tracer.Exporter().Recent(1 << 12)
	slots := int(cfg.Seconds * slotsPerSecond)
	want := len(algos) * slots * cfg.Users * 4
	if len(spans) != want {
		t.Fatalf("%d spans, want %d (run 0 only: %d algos x %d slots x %d users x 4 stages)",
			len(spans), want, len(algos), slots, cfg.Users)
	}

	traces := make(map[string]map[uint64]bool)
	for _, sp := range spans {
		if sp.Stage != trace.StageDecide {
			continue
		}
		if traces[sp.Algo] == nil {
			traces[sp.Algo] = make(map[uint64]bool)
		}
		traces[sp.Algo][sp.Trace] = true
		if want := trace.TileTraceID(algoEpoch(cfg.TraceEpoch, sp.Algo), sp.User, sp.Slot); sp.Trace != want {
			t.Fatalf("algo %s user=%d slot=%d trace=%x, want %x",
				sp.Algo, sp.User, sp.Slot, sp.Trace, want)
		}
	}
	if len(traces) != len(algos) {
		t.Fatalf("decide spans cover %d algorithms, want %d", len(traces), len(algos))
	}
	for _, id := range []string{"proposed", "firefly"} {
		if len(traces[id]) != slots*cfg.Users {
			t.Errorf("%s: %d traces, want %d", id, len(traces[id]), slots*cfg.Users)
		}
	}
	for id := range traces["proposed"] {
		if traces["firefly"][id] {
			t.Fatalf("trace %x shared across algorithms; epoch salt broken", id)
		}
	}
}

package server

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/motion"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestTraceStitchingUnderNackRetry runs a real client against a lossy server
// with NACK retransmission on, server and client sharing one tracer, and
// checks the issue's propagation contract: the trace survives the NACK
// retransmission path (a tx.retry span with a recorded retry count in the
// same trace as the original request), and server and client halves stitch
// into one trace.
func TestTraceStitchingUnderNackRetry(t *testing.T) {
	const epoch = 7
	tracer := trace.New(trace.Options{Exporter: trace.NewExporter(trace.ExporterOptions{RingSize: 1 << 15})})

	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 5 * time.Millisecond
	cfg.BudgetMbps = 300
	cfg.RetransmitOnNack = true
	cfg.Tracer = tracer
	cfg.TraceEpoch = epoch
	cfg.ShaperFor = func(user uint32) transport.Shaper {
		return lossyShaper{netem.NewLossModel(0.25, int64(user)+1)}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ccfg := client.DefaultConfig(3, srv.ControlAddr(),
		motion.Generate(motion.Scenes()[0], 3, 400, 200, 7))
	ccfg.SlotDuration = cfg.SlotDuration
	ccfg.Slots = 150
	ccfg.NackLost = true
	ccfg.Tracer = tracer
	res, err := client.Run(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nacks == 0 {
		t.Fatal("no NACKs under 25% loss; retry path unexercised")
	}
	// Give the final in-flight NACK retransmissions a moment to land.
	time.Sleep(100 * time.Millisecond)

	spans := tracer.Exporter().Recent(1 << 15)
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	serverSides := make(map[uint64]bool)
	clientSides := make(map[uint64]bool)
	retrySpans := 0
	for _, sp := range spans {
		// Every server span's trace ID must be re-derivable from its
		// (user, slot): that is what lets both halves compute it
		// independently. (Client spans can legitimately carry an older
		// slot's trace when the slot's first packet was a retransmission.)
		if sp.Side == trace.SideServer {
			if want := trace.TileTraceID(epoch, sp.User, sp.Slot); sp.Trace != want {
				t.Fatalf("span %s user=%d slot=%d trace=%x, want %x",
					sp.Stage, sp.User, sp.Slot, sp.Trace, want)
			}
		}
		switch sp.Side {
		case trace.SideServer:
			serverSides[sp.Trace] = true
		case trace.SideClient:
			clientSides[sp.Trace] = true
		}
		if sp.Stage == trace.StageRetry {
			retrySpans++
			if sp.Retry < 1 {
				t.Errorf("retry span with retry count %d", sp.Retry)
			}
			if sp.Trace != trace.TileTraceID(epoch, sp.User, sp.Slot) {
				t.Errorf("retry span lost its original trace: %+v", sp)
			}
		}
	}
	if retrySpans == 0 {
		t.Error("no tx.retry spans despite NACK retransmissions")
	}
	stitched := 0
	for id := range serverSides {
		if clientSides[id] {
			stitched++
		}
	}
	if stitched == 0 {
		t.Fatalf("no stitched traces: %d server-side, %d client-side", len(serverSides), len(clientSides))
	}

	// The analysis layer agrees: stage stats exist for both halves.
	a := trace.Analyze(spans, 3)
	if a.Stitched == 0 || a.Retried == 0 {
		t.Errorf("analysis: stitched=%d retried=%d", a.Stitched, a.Retried)
	}
}

// TestTraceSurvivesReconnectSupersede reconnects a client under the same
// user ID (superseding the live session) and checks trace IDs remain the
// deterministic (epoch, user, slot) derivation across both sessions — no
// per-connection state means a reconnect cannot fork the trace space.
func TestTraceSurvivesReconnectSupersede(t *testing.T) {
	const epoch = 11
	tracer := trace.New(trace.Options{Exporter: trace.NewExporter(trace.ExporterOptions{RingSize: 1 << 14})})

	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 5 * time.Millisecond
	cfg.BudgetMbps = 300
	cfg.Tracer = tracer
	cfg.TraceEpoch = epoch
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tr := motion.Generate(motion.Scenes()[0], 5, 400, 200, 7)
	for i := 0; i < 2; i++ { // second run supersedes the first ID
		ccfg := client.DefaultConfig(5, srv.ControlAddr(), tr)
		ccfg.SlotDuration = cfg.SlotDuration
		ccfg.Slots = 60
		ccfg.Tracer = tracer
		if _, err := client.Run(ccfg); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}

	spans := tracer.Exporter().Recent(1 << 14)
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	sawServer, sawClient := false, false
	for _, sp := range spans {
		if sp.User != 5 {
			t.Fatalf("span for unexpected user: %+v", sp)
		}
		if want := trace.TileTraceID(epoch, sp.User, sp.Slot); sp.Trace != want {
			t.Fatalf("span %s slot=%d trace=%x, want %x (derivation broke across reconnect)",
				sp.Stage, sp.Slot, sp.Trace, want)
		}
		switch sp.Side {
		case trace.SideServer:
			sawServer = true
		case trace.SideClient:
			sawClient = true
		}
	}
	if !sawServer || !sawClient {
		t.Fatalf("missing a side across reconnect: server=%v client=%v", sawServer, sawClient)
	}
}

// TestSLOUnderInjectedLoss drives a session into deadline misses via netem
// loss injection and checks the SLO monitor reports burn-rate trouble — the
// acceptance scenario behind /debug/slo.
func TestSLOUnderInjectedLoss(t *testing.T) {
	reg := obs.NewRegistry()
	slo := obs.NewSLOMonitor(obs.SLOConfig{WindowSlots: 100, ShortWindowSlots: 20}, reg)

	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 5 * time.Millisecond
	cfg.BudgetMbps = 300
	cfg.Metrics = reg
	cfg.SLO = slo
	// Heavy loss, no NACK recovery: most frames arrive incomplete and the
	// decoder has nothing fresh to show, so deadline misses accumulate.
	cfg.ShaperFor = func(user uint32) transport.Shaper {
		return lossyShaper{netem.NewLossModel(0.75, 3)}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ccfg := client.DefaultConfig(8, srv.ControlAddr(),
		motion.Generate(motion.Scenes()[0], 8, 400, 200, 7))
	ccfg.SlotDuration = cfg.SlotDuration
	ccfg.Slots = 200
	if _, err := client.Run(ccfg); err != nil {
		t.Fatal(err)
	}

	// The session has left by now, but state/gauges were updated while its
	// ACKs flowed; transitions are counted cumulatively.
	warn := reg.Counter("collabvr_slo_warn_transitions_total").Value()
	page := reg.Counter("collabvr_slo_page_transitions_total").Value()
	if warn == 0 && page == 0 {
		t.Fatalf("75%% loss produced no SLO transitions (warn=%d page=%d)", warn, page)
	}
}

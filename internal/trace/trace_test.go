package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/jsonl"
)

func TestTileTraceIDDeterministicAndNonZero(t *testing.T) {
	a := TileTraceID(42, 7, 214)
	b := TileTraceID(42, 7, 214)
	if a != b {
		t.Fatalf("not deterministic: %x vs %x", a, b)
	}
	if a == 0 {
		t.Fatal("trace ID must never be 0")
	}
	if TileTraceID(42, 7, 215) == a || TileTraceID(42, 8, 214) == a || TileTraceID(43, 7, 214) == a {
		t.Fatal("neighbouring requests collided")
	}
	// Distribution sanity: distinct inputs give distinct IDs.
	seen := make(map[uint64]bool)
	for user := uint32(0); user < 64; user++ {
		for slot := uint32(0); slot < 64; slot++ {
			id := TileTraceID(1, user, slot)
			if id == 0 {
				t.Fatalf("zero ID for user=%d slot=%d", user, slot)
			}
			if seen[id] {
				t.Fatalf("collision at user=%d slot=%d", user, slot)
			}
			seen[id] = true
		}
	}
}

func TestSpanLifecycleIntoRing(t *testing.T) {
	clock := int64(0)
	tr := New(Options{Clock: func() int64 { clock += 1e6; return clock }})
	id := TileTraceID(1, 3, 10)

	sp := tr.Start(id, StageSend, SideServer, 3, 10)
	sp.SetTiles(4)
	sp.SetBytes(4096)
	sp.SetLevel(2)
	sp.End()

	sp2 := tr.StartAt(id, StageDisplay, SideClient, 3, 10, 5e6)
	sp2.SetOutcome(OutcomeDisplayed)
	sp2.EndAt(7e6)

	recent := tr.Exporter().Recent(10)
	if len(recent) != 2 {
		t.Fatalf("ring holds %d spans, want 2", len(recent))
	}
	send, disp := recent[0], recent[1]
	if send.Stage != StageSend || send.Side != SideServer || send.Trace != id {
		t.Errorf("send span = %+v", send)
	}
	if send.Tiles != 4 || send.Bytes != 4096 || send.Level != 2 {
		t.Errorf("send span fields = %+v", send)
	}
	if send.StartNs != 1e6 || send.EndNs != 2e6 {
		t.Errorf("send span clock = [%d, %d]", send.StartNs, send.EndNs)
	}
	if disp.Stage != StageDisplay || disp.Outcome != OutcomeDisplayed ||
		disp.StartNs != 5e6 || disp.EndNs != 7e6 {
		t.Errorf("display span = %+v", disp)
	}
	if send.Span == disp.Span {
		t.Error("span IDs not unique")
	}
	if got := tr.startedCount(); got != 2 {
		t.Errorf("Started = %d", got)
	}
}

func TestSampling(t *testing.T) {
	tr := New(Options{Sample: 4, Clock: func() int64 { return 0 }})
	kept := 0
	for i := uint64(1); i <= 1000; i++ {
		if sp := tr.StartAt(i, StageSend, SideServer, 0, 0, 0); sp != nil {
			kept++
			sp.End()
			if !tr.sampled(i) {
				t.Fatalf("Start kept trace %d but Sampled says no", i)
			}
		} else if tr.sampled(i) {
			t.Fatalf("Start dropped trace %d but Sampled says yes", i)
		}
	}
	if kept != 250 {
		t.Errorf("sample=4 kept %d of 1000", kept)
	}
	if tr.startedCount() != 1000 || tr.sampledOutCount() != 750 {
		t.Errorf("counters: started=%d sampledOut=%d", tr.startedCount(), tr.sampledOutCount())
	}
	if got := uint64(len(tr.Exporter().Recent(4096))); got != 250 {
		t.Errorf("ring holds %d", got)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Now() != 0 || tr.sampled(1) || tr.startedCount() != 0 || tr.sampledOutCount() != 0 {
		t.Fatal("nil tracer accessors not inert")
	}
	if tr.Exporter() != nil {
		t.Fatal("nil tracer exporter not nil")
	}
	sp := tr.Start(1, StageSend, SideServer, 0, 0)
	if sp != nil {
		t.Fatal("nil tracer handed out a span")
	}
	// All span methods must be safe on nil.
	sp.SetLevel(1)
	sp.SetTiles(1)
	sp.SetBytes(1)
	sp.SetRetry(1)
	sp.SetAlgo("x")
	sp.SetOutcome(OutcomeMissed)
	sp.SetErr("boom")
	sp.End()
	sp.EndAt(5)

	// Exporter nil-safety.
	var e *Exporter
	if e.Close() != nil || e.Err() != nil || e.Records() != 0 || e.Dropped() != 0 || e.Recent(4) != nil {
		t.Fatal("nil exporter not inert")
	}

	// Enabled tracer, zero trace ID: untraced on the wire -> no span.
	live := New(Options{})
	if live.Start(0, StageRecv, SideClient, 1, 1) != nil {
		t.Fatal("trace ID 0 produced a span")
	}
}

// TestDisabledPathZeroAllocs is the hot-path gate from the issue: the whole
// instrumented sequence on a nil tracer must not allocate.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(TileTraceID(1, 2, 3), StageSend, SideServer, 2, 3)
		sp.SetTiles(4)
		sp.SetBytes(4096)
		sp.SetRetry(1)
		sp.End()
		_ = tr.Now()
		_ = tr.sampled(5)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %.1f/op, want 0", allocs)
	}
}

// TestEnabledRingPathZeroAllocs: pooled spans + ring export by value keep the
// steady-state enabled path allocation-free too.
func TestEnabledRingPathZeroAllocs(t *testing.T) {
	tr := New(Options{Clock: func() int64 { return 0 }})
	id := TileTraceID(9, 1, 1)
	// Warm the pool.
	tr.Start(id, StageSend, SideServer, 1, 1).End()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(id, StageSend, SideServer, 1, 1)
		sp.SetTiles(2)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("enabled ring path allocates %.1f/op, want 0", allocs)
	}
}

func TestSyncExporterJSONL(t *testing.T) {
	var buf bytes.Buffer
	exp := NewExporter(ExporterOptions{Writer: &buf, Sync: true, RingSize: 8})
	tr := New(Options{Exporter: exp, Clock: func() int64 { return 42 }})
	for i := 0; i < 3; i++ {
		sp := tr.Start(TileTraceID(1, uint32(i), 0), StageDecide, SideServer, uint32(i), 0)
		sp.SetAlgo("dvgreedy")
		sp.End()
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want 3", len(lines))
	}
	var rec SpanRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Stage != StageDecide || rec.Algo != "dvgreedy" || rec.StartNs != 42 {
		t.Errorf("decoded = %+v", rec)
	}
	if exp.Records() != 3 || exp.Dropped() != 0 {
		t.Errorf("exported=%d dropped=%d", exp.Records(), exp.Dropped())
	}
	// Round-trip through the reader.
	spans, err := ReadSpans(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("ReadSpans returned %d", len(spans))
	}
}

// gate blocks Write until released, forcing the async queue to back up.
type gate struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (g *gate) Write(p []byte) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}

func TestAsyncExporterDropsWhenQueueFull(t *testing.T) {
	g := &gate{}
	g.mu.Lock() // hold the writer so the drain goroutine stalls
	exp := NewExporter(ExporterOptions{Writer: g, RingSize: 8})
	tr := New(Options{Exporter: exp, Clock: func() int64 { return 0 }})
	const spans = jsonl.QueueSize + 64
	for i := 0; i < spans; i++ {
		tr.Start(TileTraceID(2, uint32(i), 0), StageSend, SideServer, uint32(i), 0).End()
	}
	if exp.Dropped() == 0 {
		t.Error("full queue dropped nothing")
	}
	if exp.Records() != spans {
		t.Errorf("exported=%d", exp.Records())
	}
	g.mu.Unlock()
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything that wasn't dropped must have been written.
	got := uint64(len(strings.Split(strings.TrimSpace(g.buf.String()), "\n")))
	if want := exp.Records() - exp.Dropped(); got != want {
		t.Errorf("wrote %d lines, want %d", got, want)
	}
	// The ring still holds the most recent spans regardless of drops.
	if len(exp.Recent(8)) != 8 {
		t.Errorf("ring holds %d", len(exp.Recent(8)))
	}
}

func TestAsyncExporterNoDropsWhenDrained(t *testing.T) {
	var g gate
	exp := NewExporter(ExporterOptions{Writer: &g})
	tr := New(Options{Exporter: exp, Clock: func() int64 { return 0 }})
	for i := 0; i < 512; i++ {
		tr.Start(TileTraceID(3, uint32(i), 0), StageSend, SideServer, uint32(i), 0).End()
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if exp.Dropped() != 0 {
		t.Errorf("dropped %d with ample queue", exp.Dropped())
	}
	spans, err := ReadSpans(bytes.NewReader(g.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 512 {
		t.Errorf("read %d spans", len(spans))
	}
}

// TestExporterStopsWritingAfterClose: a span exported after Close still
// enters the ring but reaches the writer in neither mode.
func TestExporterStopsWritingAfterClose(t *testing.T) {
	for _, syncWrite := range []bool{true, false} {
		var g gate
		exp := NewExporter(ExporterOptions{Writer: &g, Sync: syncWrite})
		tr := New(Options{Exporter: exp, Clock: func() int64 { return 0 }})
		tr.Start(TileTraceID(4, 1, 0), StageSend, SideServer, 1, 0).End()
		if err := exp.Close(); err != nil {
			t.Fatal(err)
		}
		tr.Start(TileTraceID(4, 1, 1), StageSend, SideServer, 1, 1).End()
		if got := strings.Count(g.buf.String(), "\n"); got != 1 {
			t.Errorf("sync %v: %d lines written, want 1", syncWrite, got)
		}
		if got := len(exp.Recent(4)); got != 2 {
			t.Errorf("sync %v: ring holds %d spans, want 2", syncWrite, got)
		}
	}
}

func TestRingWrapsKeepingMostRecent(t *testing.T) {
	exp := NewExporter(ExporterOptions{RingSize: 4})
	tr := New(Options{Exporter: exp, Clock: func() int64 { return 0 }})
	for slot := uint32(0); slot < 10; slot++ {
		tr.Start(TileTraceID(1, 1, slot), StageSend, SideServer, 1, slot).End()
	}
	recent := exp.Recent(100)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d", len(recent))
	}
	for i, rec := range recent {
		if want := uint32(6 + i); rec.Slot != want {
			t.Errorf("recent[%d].Slot = %d, want %d", i, rec.Slot, want)
		}
	}
}

package trace

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// synthSpans builds two traces: a fast displayed one and a slow missed one
// with a retry, the slow one dominated by tx.retry.
func synthSpans() []SpanRecord {
	t1 := TileTraceID(1, 1, 10)
	t2 := TileTraceID(1, 2, 10)
	ms := func(v float64) int64 { return int64(v * 1e6) }
	return []SpanRecord{
		{Trace: t1, Span: 1, Stage: StageDecide, Side: SideServer, User: 1, Slot: 10, StartNs: 0, EndNs: ms(1)},
		{Trace: t1, Span: 2, Stage: StageSend, Side: SideServer, User: 1, Slot: 10, StartNs: ms(1), EndNs: ms(3), Tiles: 4, Bytes: 4096},
		{Trace: t1, Span: 3, Stage: StageRecv, Side: SideClient, User: 1, Slot: 10, StartNs: ms(2), EndNs: ms(4)},
		{Trace: t1, Span: 4, Stage: StageDisplay, Side: SideClient, User: 1, Slot: 10, StartNs: ms(4), EndNs: ms(5), Outcome: OutcomeDisplayed, Level: 2},

		{Trace: t2, Span: 5, Stage: StageDecide, Side: SideServer, User: 2, Slot: 10, StartNs: 0, EndNs: ms(1)},
		{Trace: t2, Span: 6, Stage: StageSend, Side: SideServer, User: 2, Slot: 10, StartNs: ms(1), EndNs: ms(2), Tiles: 4},
		{Trace: t2, Span: 7, Stage: StageRetry, Side: SideServer, User: 2, Slot: 10, StartNs: ms(5), EndNs: ms(25), Retry: 2, Tiles: 1},
		{Trace: t2, Span: 8, Stage: StageRecv, Side: SideClient, User: 2, Slot: 10, StartNs: ms(2), EndNs: ms(26), Retry: 2},
		{Trace: t2, Span: 9, Stage: StageDisplay, Side: SideClient, User: 2, Slot: 10, StartNs: ms(26), EndNs: ms(27), Outcome: OutcomeMissed},
	}
}

func TestAnalyze(t *testing.T) {
	a := Analyze(synthSpans(), 1)
	if a.Spans != 9 || a.Traces != 2 {
		t.Fatalf("spans=%d traces=%d", a.Spans, a.Traces)
	}
	if a.Stitched != 2 {
		t.Errorf("stitched = %d, want 2 (both traces have server and client spans)", a.Stitched)
	}
	if a.Displayed != 1 || a.Missed != 1 || a.Retried != 1 {
		t.Errorf("displayed=%d missed=%d retried=%d", a.Displayed, a.Missed, a.Retried)
	}

	byStage := map[string]stageStat{}
	for _, s := range a.Stages {
		byStage[s.Stage] = s
	}
	if got := byStage[StageDecide]; got.Count != 2 || got.P50Ms != 1 || got.MaxMs != 1 {
		t.Errorf("decide stat = %+v", got)
	}
	if got := byStage[StageRetry]; got.Count != 1 || got.P50Ms != 20 || got.P99Ms != 20 {
		t.Errorf("retry stat = %+v", got)
	}
	// Critical-path attribution: trace 1 is dominated by send and recv (2ms
	// each; TestAnalyzeOrderIndependent pins the tie to send), trace 2 by
	// recv (24ms).
	if got := byStage[StageRecv].Critical + byStage[StageSend].Critical; got != 2 {
		t.Errorf("critical attribution = %+v", a.Stages)
	}
	if byStage[StageDecide].Critical != 0 {
		t.Errorf("decide marked critical: %+v", byStage[StageDecide])
	}

	// Stage ordering follows the pipeline.
	var order []string
	for _, s := range a.Stages {
		order = append(order, s.Stage)
	}
	want := []string{StageDecide, StageSend, StageRetry, StageRecv, StageDisplay}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("stage order = %v", order)
	}

	// Slowest exemplar is trace 2 (27ms wall span vs 5ms).
	if len(a.Slowest) != 1 {
		t.Fatalf("slowest has %d entries", len(a.Slowest))
	}
	slow := a.Slowest[0]
	if slow.Trace != TileTraceID(1, 2, 10) || slow.TotalMs != 27 ||
		slow.Outcome != OutcomeMissed || slow.Retries != 2 {
		t.Errorf("slowest = %+v", slow)
	}

	out := a.Format()
	for _, want := range []string{"slot.decide", "tx.retry", "rx.display", "stitched", "slowest[0]", "missed"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
}

// TestAnalyzeOrderIndependent: the same spans in any order give the same
// analysis, critical-path ties and shares included. A tie goes to the stage
// earlier in the pipeline.
func TestAnalyzeOrderIndependent(t *testing.T) {
	spans := synthSpans()
	// A third trace whose four stages each take a third of a millisecond:
	// a tie four ways, and durations whose float sums depend on order.
	t3 := TileTraceID(1, 3, 11)
	for i, stage := range []string{StageDisplay, StageRecv, StageSend, StageAdmit} {
		spans = append(spans, SpanRecord{Trace: t3, Span: uint64(20 + i), Stage: stage, Side: SideServer,
			User: 3, Slot: 11, StartNs: int64(i) * 333_333, EndNs: int64(i+1) * 333_333})
	}
	// Two outcomes from stages other than display: the later stage's wins.
	t4 := TileTraceID(1, 4, 12)
	spans = append(spans,
		SpanRecord{Trace: t4, Span: 30, Stage: StageAbandon, Side: SideServer, User: 4, Slot: 12, EndNs: 100, Outcome: OutcomeMissed},
		SpanRecord{Trace: t4, Span: 31, Stage: StageAck, Side: SideServer, User: 4, Slot: 12, EndNs: 100, Outcome: OutcomeDisplayed})
	want := Analyze(spans, 4)
	rng := rand.New(rand.NewSource(5))
	for i := range 20 {
		shuffled := append([]SpanRecord(nil), spans...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		if got := Analyze(shuffled, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("order %d: analysis differs:\n%s\nwant\n%s", i, got.Format(), want.Format())
		}
	}
	byStage := map[string]stageStat{}
	for _, s := range want.Stages {
		byStage[s.Stage] = s
	}
	// Trace 1 ties send and recv, trace 3 ties admit, send, recv and display.
	if got := byStage[StageSend].Critical; got != 1 {
		t.Errorf("send critical in %d traces, want 1 (trace 1's tie)", got)
	}
	if got := byStage[StageAdmit].Critical; got != 1 {
		t.Errorf("admit critical in %d traces, want 1 (trace 3's tie)", got)
	}
	if want.Displayed != 2 || want.Missed != 1 {
		t.Errorf("displayed %d, missed %d; want trace 4 displayed by its ack", want.Displayed, want.Missed)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil, 5)
	if a.Spans != 0 || a.Traces != 0 || len(a.Stages) != 0 || len(a.Slowest) != 0 {
		t.Fatalf("empty analysis = %+v", a)
	}
	if out := a.Format(); !strings.Contains(out, "0 spans") {
		t.Errorf("empty format = %q", out)
	}
}

func TestReadSpansRejectsGarbage(t *testing.T) {
	if _, err := ReadSpans(strings.NewReader("{\"trace\":1,\"stage\":\"x\"}\nnot json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := ReadSpans(strings.NewReader("{\"trace\":0,\"stage\":\"x\"}\n")); err == nil {
		t.Fatal("zero trace ID accepted")
	}
	spans, err := ReadSpans(strings.NewReader("\n{\"trace\":1,\"stage\":\"tx.send\"}\n\n"))
	if err != nil || len(spans) != 1 {
		t.Fatalf("blank-line tolerance: spans=%d err=%v", len(spans), err)
	}
}

// TestReadSpansTolerantTrailingPartial is the live-file regression test: a
// reader racing the exporter sees a torn final line, which must be skipped
// and counted rather than failing the whole read — but interior corruption
// must still be fatal in both readers.
func TestReadSpansTolerantTrailingPartial(t *testing.T) {
	in := "{\"trace\":1,\"stage\":\"tx.send\"}\n{\"trace\":2,\"stage\":\"disp"
	spans, skipped, err := ReadSpansTolerant(strings.NewReader(in))
	if err != nil {
		t.Fatalf("torn tail errored: %v", err)
	}
	if len(spans) != 1 || skipped != 1 {
		t.Fatalf("spans=%d skipped=%d, want 1/1", len(spans), skipped)
	}
	if _, err := ReadSpans(strings.NewReader(in)); err == nil {
		t.Fatal("strict ReadSpans accepted a torn tail")
	}
	if _, _, err := ReadSpansTolerant(strings.NewReader(
		"garbage\n{\"trace\":1,\"stage\":\"tx.send\"}\n")); err == nil {
		t.Fatal("interior corruption accepted")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	ds := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(ds, 0.5); q != 5 {
		t.Errorf("p50 = %v", q)
	}
	if q := quantile(ds, 0.9); q != 9 {
		t.Errorf("p90 = %v", q)
	}
	if q := quantile(ds, 0.95); q != 10 {
		t.Errorf("p95 = %v", q)
	}
	if q := quantile(ds, 0.99); q != 10 {
		t.Errorf("p99 = %v", q)
	}
	if q := quantile(ds, 0); q != 1 {
		t.Errorf("p0 = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty = %v", q)
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("x_total") != c {
		t.Error("counter not idempotent per name")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5, 10})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 7, 20} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.total(); math.Abs(got-33.5) > 1e-9 {
		t.Errorf("sum = %v, want 33.5", got)
	}
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Errorf("p50 = %v, want within (1,2]", q)
	}
	// Overflow samples report the top finite bound.
	if q := h.Quantile(1); q != 10 {
		t.Errorf("p100 = %v, want 10", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(LinearBuckets(0, 1, 10))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 12))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(1, 2, 3)
	if lin[0] != 1 || lin[1] != 3 || lin[2] != 5 {
		t.Errorf("linear buckets = %v", lin)
	}
	exp := ExponentialBuckets(1, 10, 3)
	if exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Errorf("exponential buckets = %v", exp)
	}
}

func TestNilRegistryAndInstrumentsAreNoops(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", LinearBuckets(0, 1, 4))
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.total() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil instruments must read zero")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry exposition = %q, %v", buf.String(), err)
	}
}

func TestDisabledPathAllocationFree(t *testing.T) {
	var r *Registry
	var rec *Recorder
	c := r.Counter("c")
	h := r.Histogram("h", nil)
	slotRec := &SlotRecord{Algorithm: "x", Levels: []int{1, 2}}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(3)
		if rec.Enabled() {
			t.Fatal("nil recorder reported enabled")
		}
		rec.Record(slotRec)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocated %v per op, want 0", allocs)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a_gauge").Set(1.5)
	h := r.Histogram("c_hist", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantLines := []string{
		"# TYPE a_gauge gauge",
		"a_gauge 1.5",
		"# TYPE b_total counter",
		"b_total 2",
		"# TYPE c_hist histogram",
		`c_hist_bucket{le="1"} 1`,
		`c_hist_bucket{le="2"} 1`,
		`c_hist_bucket{le="+Inf"} 2`,
		"c_hist_sum 5.5",
		"c_hist_count 2",
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sorted by name: the gauge precedes the counter.
	if strings.Index(out, "a_gauge") > strings.Index(out, "b_total") {
		t.Errorf("exposition not sorted:\n%s", out)
	}
}

func TestRecorderRingSummaryAndJSONL(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(RecorderOptions{RingSize: 4, Writer: &buf})
	for i := 0; i < 6; i++ {
		rec.Record(&SlotRecord{
			Algorithm:   "proposed",
			Slot:        i,
			Levels:      []int{1, 2},
			Value:       10,
			RateMbps:    90,
			BudgetMbps:  180,
			Utilization: 0.5,
			Branch:      "density",
			Upgrades:    3,
			Rejections: []Rejection{
				{User: 0, Level: 4, Constraint: ConstraintUserCap},
				{User: 1, Level: 3, Constraint: ConstraintBudget},
			},
			Regret:    0.25,
			HasRegret: true,
		})
	}
	rec.Record(&SlotRecord{Algorithm: "optimal", Slot: 0, Value: 10.25, Utilization: 0.6})

	if rec.Records() != 7 {
		t.Errorf("records = %d, want 7", rec.Records())
	}
	recent := rec.Recent(10)
	if len(recent) != 4 {
		t.Fatalf("ring kept %d records, want 4", len(recent))
	}
	if recent[len(recent)-1].Algorithm != "optimal" {
		t.Errorf("newest record = %+v", recent[len(recent)-1])
	}
	if recent[0].Slot != 3 || recent[0].Algorithm != "proposed" {
		t.Errorf("oldest ring record = %+v, want proposed slot 3", recent[0])
	}

	s := rec.Summary()
	if s.Records != 7 || len(s.Algorithms) != 2 {
		t.Fatalf("summary = %+v", s)
	}
	// Sorted by name: optimal first.
	if s.Algorithms[0].Name != "optimal" || s.Algorithms[1].Name != "proposed" {
		t.Fatalf("summary order = %+v", s.Algorithms)
	}
	p := s.Algorithms[1]
	if p.Slots != 6 || p.Upgrades != 18 || p.RejectsUserCap != 6 || p.RejectsBudget != 6 {
		t.Errorf("proposed summary = %+v", p)
	}
	if math.Abs(p.MeanRegret-0.25) > 1e-9 || math.Abs(p.MaxRegret-0.25) > 1e-9 {
		t.Errorf("regret summary = %+v", p)
	}
	if math.Abs(p.MeanUtilization-0.5) > 1e-9 {
		t.Errorf("mean utilization = %v", p.MeanUtilization)
	}
	if !strings.Contains(s.Format(), "proposed") {
		t.Errorf("Format missing algorithm:\n%s", s.Format())
	}

	// JSONL: one valid JSON object per line.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("JSONL lines = %d, want 7", len(lines))
	}
	var first SlotRecord
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("bad JSONL line: %v", err)
	}
	if first.Algorithm != "proposed" || len(first.Rejections) != 2 || !first.HasRegret {
		t.Errorf("decoded record = %+v", first)
	}
	if rec.Err() != nil {
		t.Errorf("write error: %v", rec.Err())
	}
}

func TestHTTPHandlers(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("collabvr_server_slots_total").Add(3)
	rec := NewRecorder(RecorderOptions{RingSize: 8})
	rec.Record(&SlotRecord{Algorithm: "proposed", Slot: 1, Levels: []int{2}})

	mux := NewMuxOpts(reg, rec, MuxOptions{})

	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != 200 || !strings.Contains(w.Body.String(), "collabvr_server_slots_total 3") {
		t.Errorf("/metrics = %d %q", w.Code, w.Body.String())
	}

	w = httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/debug/slots?n=5", nil))
	if w.Code != 200 {
		t.Fatalf("/debug/slots = %d", w.Code)
	}
	var resp struct {
		Summary Summary      `json:"summary"`
		Recent  []SlotRecord `json:"recent"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Summary.Records != 1 || len(resp.Recent) != 1 || resp.Recent[0].Algorithm != "proposed" {
		t.Errorf("slots response = %+v", resp)
	}

	w = httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/debug/slots?n=bogus", nil))
	if w.Code != 400 {
		t.Errorf("bad n should 400, got %d", w.Code)
	}
}

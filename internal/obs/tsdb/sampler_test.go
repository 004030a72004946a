package tsdb

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/obs"
)

func TestSamplerWalksRegistryAndSLO(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("collabvr_sent_total").Add(10)
	reg.Gauge("collabvr_sessions").Set(3)
	h := reg.Histogram("collabvr_latency_ms", obs.DefaultLatencyBuckets())
	h.Observe(2)
	h.Observe(4)
	slo := obs.NewSLOMonitor(obs.SLOConfig{WindowSlots: 10, ShortWindowSlots: 2}, reg)
	for i := 0; i < 5; i++ {
		slo.ObserveSlot(1, true, 4)
		slo.ObserveSlot(2, false, 0)
	}

	st := New(Options{RawSlots: 16})
	s := NewSampler(SamplerOptions{Store: st, Registry: reg, SLO: slo})
	s.Sample(0)
	reg.Counter("collabvr_sent_total").Add(5)
	s.Sample(1)

	if got := st.Series("collabvr_sent_total", Counter).Stats(2); got.Last-got.First != 5 {
		t.Fatalf("counter delta = %g, want 5", got.Last-got.First)
	}
	if got := st.Series("collabvr_sessions", Gauge).Stats(1); got.Last != 3 {
		t.Fatalf("gauge = %g, want 3", got.Last)
	}
	if got := st.Series("collabvr_latency_ms_mean", hist).Stats(1); got.Last != 3 {
		t.Fatalf("hist mean = %g, want 3", got.Last)
	}
	if got := st.Series("collabvr_slo_sessions_page", Gauge).Stats(1); got.Count != 1 {
		t.Fatal("SLO totals not sampled")
	}
}

func TestDisabledSamplerIsAllocationFree(t *testing.T) {
	var s *Sampler
	slot := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		s.Sample(slot)
		slot++
	}); n != 0 {
		t.Fatalf("disabled sampler: %.1f allocs/op, want 0", n)
	}
}

func TestEnabledSamplerSteadyStateIsAllocationFree(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c").Add(1)
	reg.Gauge("g").Set(2)
	reg.Histogram("h", []float64{1, 10}).Observe(3)
	slo := obs.NewSLOMonitor(obs.SLOConfig{WindowSlots: 8, ShortWindowSlots: 2}, reg)
	slo.ObserveSlot(1, true, 4)
	st := New(Options{RawSlots: 32})
	s := NewSampler(SamplerOptions{Store: st, Registry: reg, SLO: slo})
	s.Sample(0) // first pass registers the series
	slot := int64(1)
	if n := testing.AllocsPerRun(500, func() {
		s.Sample(slot)
		slot++
	}); n != 0 {
		t.Fatalf("steady-state sampler: %.1f allocs/op, want 0", n)
	}
}

func TestSamplerDeterministicAcrossRuns(t *testing.T) {
	run := func() []SeriesSnapshot {
		reg := obs.NewRegistry()
		st := New(Options{RawSlots: 32})
		s := NewSampler(SamplerOptions{Store: st, Registry: reg})
		for slot := int64(0); slot < 40; slot++ {
			reg.Counter("work_total").Add(uint64(slot % 7))
			reg.Gauge("load").Set(float64(slot * 13 % 29))
			s.Sample(slot)
		}
		return st.Snapshot()
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("identical sampler runs exported different snapshots")
	}
}

func TestHealthHandler(t *testing.T) {
	st := New(Options{RawSlots: 16})
	for slot := int64(0); slot < 12; slot++ {
		st.Series("a_metric", Gauge).Observe(slot, 1)
		st.ShardSeries("shard_load", Gauge, 0).Observe(slot, float64(slot))
	}
	h := Handler(st)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var doc HealthDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Slot != 11 || doc.SeriesCount != 2 || len(doc.Series) != 2 {
		t.Fatalf("doc slot=%d series_count=%d series=%d", doc.Slot, doc.SeriesCount, len(doc.Series))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health?name=shard", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Series) != 1 || doc.Series[0].Name != "shard_load" || len(doc.Series[0].Points) != 12 {
		t.Fatalf("filtered doc = %+v", doc.Series)
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// regretFixture feeds a small, fully-known record set through a recorder
// wired to the attributor: one slot per attribution reason, one
// no-reference slot contributing only forgone gain.
func regretFixture(attr *RegretAttributor) *Recorder {
	rec := NewRecorder(RecorderOptions{RingSize: 8, Attributor: attr})
	rec.Record(&SlotRecord{
		Algorithm: "dvgreedy", Slot: 1, HasRegret: true, Regret: 2.0,
		SessionIDs: []uint32{10, 11, 12},
		UserRegret: []float64{1.5, 0, 0.5},
		Rejections: []Rejection{{User: 0, Level: 3, Constraint: ConstraintBudget}},
		CapErr:     []float64{0, 0, 0.5},
	})
	rec.Record(&SlotRecord{
		Algorithm: "dvgreedy", Slot: 2, HasRegret: true, Regret: 1.0,
		SessionIDs:   []uint32{10, 11, 12},
		UserRegret:   []float64{0, 1, 0},
		Alternatives: []Alternative{{User: 1, Level: 4, Gain: 0.3, Reason: ConstraintUnprofitable}},
	})
	rec.Record(&SlotRecord{
		Algorithm: "dvgreedy", Slot: 3, HasRegret: true, Regret: 0.5,
		SessionIDs: []uint32{10, 11, 12},
		UserRegret: []float64{0.25, 0.25, 0},
	})
	rec.Record(&SlotRecord{
		Algorithm: "dvgreedy", Slot: 4,
		Alternatives: []Alternative{
			{User: 0, Level: 2, Gain: 2, Reason: ConstraintBudget},
			{User: 1, Level: 2, Gain: -1, Reason: ConstraintUserCap},
		},
	})
	return rec
}

func TestRegretAttribution(t *testing.T) {
	reg := NewRegistry()
	attr := NewRegretAttributor(RegretAttributorOptions{Registry: reg})
	regretFixture(attr)
	rep := attr.Report()

	if rep.Slots != 4 || rep.RegretSlots != 3 {
		t.Fatalf("slots=%d regretSlots=%d, want 4/3", rep.Slots, rep.RegretSlots)
	}
	if !near(rep.TotalRegret, 3.5) || !near(rep.AttributedRegret, 3.5) {
		t.Fatalf("total=%v attributed=%v, want 3.5/3.5", rep.TotalRegret, rep.AttributedRegret)
	}
	if !near(rep.AttributedFraction, 1) || rep.Rows != 5 {
		t.Fatalf("fraction=%v rows=%d, want 1/5", rep.AttributedFraction, rep.Rows)
	}

	wantReason := map[string]float64{
		ConstraintBudget:       1.5, // slot 1 user 0: quality_verification rejection
		ConstraintUnprofitable: 1.0, // slot 2 user 1: recorded counterfactual
		ReasonChannelEstimate:  0.5, // slot 1 user 2: |CapErr| over threshold
		ReasonStructural:       0.5, // slot 3: nothing recorded to blame
	}
	if len(rep.ByReason) != len(wantReason) {
		t.Fatalf("by_reason = %+v", rep.ByReason)
	}
	for _, s := range rep.ByReason {
		if !near(s.Regret, wantReason[s.Reason]) {
			t.Errorf("reason %s = %v, want %v", s.Reason, s.Regret, wantReason[s.Reason])
		}
	}

	wantSession := []struct {
		id  uint32
		sum float64
	}{{10, 1.75}, {11, 1.25}, {12, 0.5}}
	if len(rep.TopSessions) != 3 {
		t.Fatalf("top_sessions = %+v", rep.TopSessions)
	}
	for i, w := range wantSession {
		if rep.TopSessions[i].Session != w.id || !near(rep.TopSessions[i].Regret, w.sum) {
			t.Errorf("session rank %d = %+v, want %d/%v", i, rep.TopSessions[i], w.id, w.sum)
		}
	}

	if len(rep.WorstRows) != 5 || rep.WorstRows[0].Regret != 1.5 ||
		rep.WorstRows[0].Session != 10 || rep.WorstRows[0].Reason != ConstraintBudget {
		t.Fatalf("worst rows = %+v", rep.WorstRows)
	}

	if len(rep.ForgoneGain) != 1 || rep.ForgoneGain[0].Reason != ConstraintBudget ||
		!near(rep.ForgoneGain[0].Regret, 2) {
		t.Fatalf("forgone gain = %+v (negative gains must be dropped)", rep.ForgoneGain)
	}

	// Mirrored metrics.
	if v := reg.Counter("collabvr_regret_slots_total").Value(); v != 4 {
		t.Errorf("slots counter = %d", v)
	}
	if v := reg.Gauge("collabvr_regret_sum").Value(); !near(v, 3.5) {
		t.Errorf("regret sum gauge = %v", v)
	}
	if v := reg.Gauge("collabvr_regret_reason_channel_estimate_sum").Value(); !near(v, 0.5) {
		t.Errorf("channel-estimate gauge = %v", v)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestRegretUnattributed: regret without a per-user breakdown must be
// reported as unattributed, not silently assigned.
func TestRegretUnattributed(t *testing.T) {
	attr := NewRegretAttributor(RegretAttributorOptions{})
	attr.Observe(&SlotRecord{Algorithm: "x", HasRegret: true, Regret: 1})
	rep := attr.Report()
	if rep.AttributedRegret != 0 || rep.Rows != 0 {
		t.Fatalf("report = %+v, want nothing attributed", rep)
	}
	if rep.AttributedFraction != 0 {
		t.Fatalf("fraction = %v, want 0", rep.AttributedFraction)
	}
}

// TestRegretReportDeterminism: two attributors fed the same records render
// byte-identical reports (ranking ties included).
func TestRegretReportDeterminism(t *testing.T) {
	a1 := NewRegretAttributor(RegretAttributorOptions{})
	a2 := NewRegretAttributor(RegretAttributorOptions{})
	regretFixture(a1)
	regretFixture(a2)
	if f1, f2 := a1.Report().Format(), a2.Report().Format(); f1 != f2 {
		t.Fatalf("reports differ:\n%s\nvs\n%s", f1, f2)
	}
}

func TestRegretNilSafety(t *testing.T) {
	var attr *RegretAttributor
	attr.Observe(&SlotRecord{HasRegret: true, Regret: 5})
	if rep := attr.Report(); rep.Slots != 0 {
		t.Fatalf("nil attributor report = %+v", rep)
	}
	// A recorder without an attributor must still record.
	rec := NewRecorder(RecorderOptions{RingSize: 2})
	rec.Record(&SlotRecord{Algorithm: "x"})
	if rec.Records() != 1 {
		t.Fatal("recorder with nil attributor dropped the record")
	}
}

// TestReadSlotRecordsTolerant mirrors the span reader's live-file policy
// for decision JSONL.
func TestReadSlotRecordsTolerant(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(RecorderOptions{RingSize: 2, Writer: &buf})
	rec.Record(&SlotRecord{Algorithm: "dvgreedy", Slot: 1})
	rec.Record(&SlotRecord{Algorithm: "dvgreedy", Slot: 2})
	full := buf.String()

	records, skipped, err := ReadSlotRecords(strings.NewReader(full))
	if err != nil || skipped != 0 || len(records) != 2 {
		t.Fatalf("clean read: n=%d skipped=%d err=%v", len(records), skipped, err)
	}

	torn := full[:len(full)-15]
	records, skipped, err = ReadSlotRecords(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail errored: %v", err)
	}
	if len(records) != 1 || skipped != 1 {
		t.Fatalf("torn tail: n=%d skipped=%d, want 1/1", len(records), skipped)
	}

	if _, _, err := ReadSlotRecords(strings.NewReader("junk\n" + full)); err == nil {
		t.Fatal("interior corruption accepted")
	}
	if _, _, err := ReadSlotRecords(strings.NewReader("{\"slot\":1}\n" + full)); err == nil {
		t.Fatal("record without algorithm accepted mid-stream")
	}
}

// TestSlotsHandlerRingInfo checks the configurable-ring surface: the
// /debug/slots document reports the configured capacity and how many
// records have fallen out.
func TestSlotsHandlerRingInfo(t *testing.T) {
	rec := NewRecorder(RecorderOptions{RingSize: 2})
	for slot := 0; slot < 5; slot++ {
		rec.Record(&SlotRecord{Algorithm: "dvgreedy", Slot: slot})
	}
	if rec.RingCapacity() != 2 || rec.Dropped() != 3 {
		t.Fatalf("capacity=%d dropped=%d, want 2/3", rec.RingCapacity(), rec.Dropped())
	}

	w := httptest.NewRecorder()
	slotsHandler(rec).ServeHTTP(w, httptest.NewRequest("GET", "/debug/slots", nil))
	var doc struct {
		RingCapacity int    `json:"ring_capacity"`
		RingDropped  uint64 `json:"ring_dropped"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RingCapacity != 2 || doc.RingDropped != 3 {
		t.Fatalf("document = %+v, want capacity 2, dropped 3", doc)
	}
}

// TestRegretHandler serves the report through the mux route.
func TestRegretHandler(t *testing.T) {
	attr := NewRegretAttributor(RegretAttributorOptions{})
	regretFixture(attr)
	mux := NewMuxOpts(nil, nil, MuxOptions{Regret: attr})
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/debug/regret", nil))
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	var rep RegretReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !near(rep.TotalRegret, 3.5) || rep.Rows != 5 {
		t.Fatalf("served report = %+v", rep)
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/jsonl"
)

func TestPlacementRecorderRingAndMetrics(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry()
	pr := NewPlacementRecorder(PlacementRecorderOptions{RingSize: 4, Writer: &buf, Metrics: reg})
	for i := 0; i < 6; i++ {
		pr.Record(&PlacementRecord{Slot: i, Session: uint32(i), Reason: PlaceArrival, Chosen: i % 3})
	}
	pr.Record(&PlacementRecord{Slot: 6, Session: 2, Reason: PlaceShardKill, From: 2, Chosen: 0})
	pr.Record(&PlacementRecord{Slot: 7, Session: 9, Reason: PlaceArrival, Chosen: -1})

	if got := pr.Records(); got != 8 {
		t.Fatalf("Records = %d, want 8", got)
	}
	recent := pr.Recent(10)
	if len(recent) != 4 {
		t.Fatalf("Recent kept %d, want ring size 4", len(recent))
	}
	if recent[0].Seq >= recent[3].Seq {
		t.Fatalf("Recent not oldest-first: %d .. %d", recent[0].Seq, recent[3].Seq)
	}
	if recent[3].Chosen != -1 || recent[3].Seq != 8 {
		t.Fatalf("last record = %+v, want the failed placement seq 8", recent[3])
	}
	if got := reg.Counter("collabvr_fleet_placements_total").Value(); got != 7 {
		t.Fatalf("placements_total = %d, want 7", got)
	}
	if got := reg.Counter("collabvr_fleet_migrations_total").Value(); got != 1 {
		t.Fatalf("migrations_total = %d, want 1", got)
	}
	if got := reg.Counter("collabvr_fleet_placements_failed_total").Value(); got != 1 {
		t.Fatalf("placements_failed_total = %d, want 1", got)
	}
	if err := pr.Err(); err != nil {
		t.Fatal(err)
	}
	// Every record reached the JSONL writer even after falling off the ring.
	if lines := strings.Count(buf.String(), "\n"); lines != 8 {
		t.Fatalf("JSONL lines = %d, want 8", lines)
	}

	var disabled *PlacementRecorder
	disabled.Record(&PlacementRecord{}) // must not panic
	if disabled.Recent(3) != nil || disabled.Records() != 0 || disabled.Err() != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestPlacementJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	pr := NewPlacementRecorder(PlacementRecorderOptions{RingSize: 8, Writer: &buf})
	want := []PlacementRecord{
		{Slot: 1, Session: 10, Zone: 1, Scorer: "least-loaded", Reason: PlaceArrival, Chosen: 0, From: -1,
			Scores: []ShardScore{{Shard: 0, Score: 1.5, Sessions: 2}, {Shard: 1, Score: 0.5, Draining: true}}},
		{Slot: 2, Session: 11, Reason: PlaceSLOPressure, Chosen: 1, From: 0},
		{Slot: 3, Session: 12, Reason: PlaceShardKill, Chosen: -1, From: 2},
	}
	for i := range want {
		rec := want[i]
		pr.Record(&rec)
		want[i].Seq = rec.Seq
	}
	got, skipped, err := ReadPlacements(bytes.NewReader(buf.Bytes()))
	if err != nil || skipped != 0 {
		t.Fatalf("read: err=%v skipped=%d", err, skipped)
	}
	if len(got) != len(want) {
		t.Fatalf("round-tripped %d records, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		if a.Seq != b.Seq || a.Slot != b.Slot || a.Session != b.Session || a.Reason != b.Reason ||
			a.Chosen != b.Chosen || a.From != b.From || len(a.Scores) != len(b.Scores) {
			t.Fatalf("record %d = %+v, want %+v", i, a, b)
		}
	}
	if got[0].Scores[1].Shard != 1 || !got[0].Scores[1].Draining {
		t.Fatalf("scores lost: %+v", got[0].Scores)
	}

	// Interior corruption is a hard error; an unknown reason fails validation.
	bad := `{"seq":1,"slot":0,"session":1,"reason":"nope","chosen":0,"from":-1}` + "\n" + buf.String()
	if _, _, err := ReadPlacements(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown reason accepted")
	}
	noSeq := `{"slot":0,"session":1,"reason":"arrival","chosen":0,"from":-1}` + "\n" + buf.String()
	if _, _, err := ReadPlacements(strings.NewReader(noSeq)); err == nil {
		t.Fatal("record without seq accepted")
	}
}

func TestPlacementRingCapacityDropped(t *testing.T) {
	pr := NewPlacementRecorder(PlacementRecorderOptions{RingSize: 4})
	if pr.RingCapacity() != 4 || pr.Dropped() != 0 {
		t.Fatalf("fresh ring: cap=%d dropped=%d", pr.RingCapacity(), pr.Dropped())
	}
	for i := 0; i < 7; i++ {
		pr.Record(&PlacementRecord{Slot: i, Reason: PlaceArrival, Chosen: 0})
	}
	if pr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", pr.Dropped())
	}
	var disabled *PlacementRecorder
	if disabled.RingCapacity() != 0 || disabled.Dropped() != 0 {
		t.Fatal("nil recorder ring accounting not zero")
	}
}

func TestFleetHandler(t *testing.T) {
	snap := func(n int) FleetSnapshot {
		return FleetSnapshot{
			Scorer:           "least-loaded",
			GlobalBudgetMbps: 300,
			Shards: []FleetShardState{
				{Shard: 0, Alive: true, Sessions: 4, BudgetMbps: 150},
				{Shard: 1, Alive: false, MigratedOut: 4},
			},
			Recent: make([]PlacementRecord, 0, n),
		}
	}
	mux := NewMuxOpts(NewRegistry(), nil, MuxOptions{Fleet: snap})
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/fleet", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var doc FleetSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Scorer != "least-loaded" || len(doc.Shards) != 2 || doc.Shards[1].Alive {
		t.Fatalf("snapshot round-trip wrong: %+v", doc)
	}
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/fleet?n=bogus", nil))
	if rr.Code != 400 {
		t.Fatalf("bad n: status %d, want 400", rr.Code)
	}
	if !strings.Contains(FleetSnapshot{Shards: []FleetShardState{{Shard: 0}}}.Format(), "shard") {
		t.Fatal("Format missing header")
	}
}

// ValidatePlacement is the JSONL reader's per-record check.
func ValidatePlacement(rec *PlacementRecord) error {
	if rec.Seq == 0 {
		return fmt.Errorf("placement record without a sequence number")
	}
	switch rec.Reason {
	case PlaceArrival, PlaceShardKill, PlaceShardDrain, PlaceSLOPressure:
	default:
		return fmt.Errorf("placement seq %d: unknown reason %q", rec.Seq, rec.Reason)
	}
	if rec.Chosen < -1 {
		return fmt.Errorf("placement seq %d: bad chosen shard %d", rec.Seq, rec.Chosen)
	}
	return nil
}

// ReadPlacements decodes a PlacementRecorder JSONL stream with the shared
// tolerant trailing-line policy (see internal/jsonl).
func ReadPlacements(rd io.Reader) ([]PlacementRecord, int, error) {
	return jsonl.Decode[PlacementRecord](rd, ValidatePlacement)
}

// Format renders the snapshot as a terminal table.
func (s FleetSnapshot) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# fleet: scorer %s, global budget %.0f Mbps, %d placements, %d migrations, %d rebalances\n",
		s.Scorer, s.GlobalBudgetMbps, s.Placements, s.Migrations, s.Rebalances)
	fmt.Fprintf(&b, "%-6s %5s %6s %9s %9s %11s %11s %9s %7s %7s %7s\n",
		"shard", "zone", "alive", "draining", "sessions", "budget", "demand", "pagefrac", "placed", "migIn", "migOut")
	for _, sh := range s.Shards {
		fmt.Fprintf(&b, "%-6d %5d %6v %9v %9d %9.1fMb %9.1fMb %9.3f %7d %7d %7d\n",
			sh.Shard, sh.Zone, sh.Alive, sh.Draining, sh.Sessions,
			sh.BudgetMbps, sh.DemandMbps, sh.PageFrac,
			sh.Placed, sh.MigratedIn, sh.MigratedOut)
	}
	return b.String()
}

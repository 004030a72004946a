package tsdb

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestRawRingWrap(t *testing.T) {
	st := New(Options{RawSlots: 8})
	s := st.Series("g", Gauge)
	for slot := int64(0); slot < 20; slot++ {
		s.Observe(slot, float64(slot))
	}
	raw := st.Snapshot()[0]
	if len(raw.Points) != 8 {
		t.Fatalf("raw kept %d points, want 8", len(raw.Points))
	}
	for i, p := range raw.Points {
		if p.Slot != int64(12+i) {
			t.Fatalf("raw point %d slot = %d, want %d", i, p.Slot, 12+i)
		}
	}
	w := s.Stats(100) // clamped to ring length
	if w.Count != 8 || w.First != 12 || w.Last != 19 || w.Min != 12 || w.Max != 19 {
		t.Fatalf("Stats = %+v", w)
	}
}

func TestWindowStatsEmpty(t *testing.T) {
	var s *Series
	w := s.Stats(10)
	if w.Count != 0 || !math.IsNaN(w.Mean()) {
		t.Fatalf("nil series stats = %+v mean %g", w, w.Mean())
	}
}

func TestSnapshotDeterministicAndRoundTrip(t *testing.T) {
	build := func() *Store {
		st := New(Options{RawSlots: 32})
		// register in different orders; snapshot must not care
		names := []string{"b_gauge", "a_counter", "c_hist"}
		for slot := int64(0); slot < 45; slot++ {
			st.ShardSeries(names[slot%3], Gauge, int(slot%2)).Observe(slot, float64(slot*slot%97))
			st.Series("fleet_total", Counter).Observe(slot, float64(slot*2))
		}
		return st
	}
	s1, s2 := build().Snapshot(), build().Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("snapshots of identical observation streams differ")
	}
	for i := 1; i < len(s1); i++ {
		a, b := s1[i-1], s1[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Shard >= b.Shard) {
			t.Fatalf("snapshot not sorted at %d: %s#%d then %s#%d",
				i, a.Name, a.Shard, b.Name, b.Shard)
		}
	}

	var buf bytes.Buffer
	if err := build().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := ReadSnapshots(bytes.NewReader(buf.Bytes()))
	if err != nil || skipped != 0 {
		t.Fatalf("read: err=%v skipped=%d", err, skipped)
	}
	if !reflect.DeepEqual(got, s1) {
		t.Fatal("JSONL round trip does not reproduce the snapshot")
	}
}

func TestReadSnapshotsRejectsBadRecords(t *testing.T) {
	// A good line after the bad one makes it interior corruption — a hard
	// error under the shared jsonl policy (a lone trailing bad line would
	// be skipped as a live writer's partial tail).
	good := `{"name":"ok","kind":"gauge","shard":-1,"points":[]}` + "\n"
	for _, bad := range []string{
		`{"name":"","kind":"gauge","shard":-1,"points":[]}`,
		`{"name":"x","kind":"nope","shard":-1,"points":[]}`,
		`{"name":"x","kind":"gauge","shard":-1,"points":[{"slot":5,"value":1},{"slot":4,"value":1}]}`,
		// A second snapshot of one (name, shard), as an export with
		// downsampled resolutions beside each series held.
		`{"name":"ok","kind":"gauge","shard":-1,"points":[{"slot":0,"value":1}]}`,
	} {
		if _, _, err := ReadSnapshots(strings.NewReader(bad + "\n" + good)); err == nil {
			t.Fatalf("interior bad record accepted: %s", bad)
		}
	}
	// ...and the same bad line at EOF is tolerated as a partial tail.
	recs, skipped, err := ReadSnapshots(strings.NewReader(good + `{"name":"x","kind":"nope"`))
	if err != nil || skipped != 1 || len(recs) != 1 {
		t.Fatalf("trailing partial: recs=%d skipped=%d err=%v", len(recs), skipped, err)
	}
}

func TestDisabledStoreIsAllocationFree(t *testing.T) {
	var st *Store
	s := st.Series("x", Gauge)
	if s != nil {
		t.Fatal("nil store handed out a live series")
	}
	slot := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		s.Observe(slot, 1.0)
		_ = s.Stats(16)
		slot++
	}); n != 0 {
		t.Fatalf("disabled series: %.1f allocs/op, want 0", n)
	}
	if st.Snapshot() != nil || st.Len() != 0 {
		t.Fatal("nil store snapshot not empty")
	}
}

func TestEnabledObserveIsAllocationFree(t *testing.T) {
	st := New(Options{RawSlots: 64})
	s := st.Series("x", Gauge)
	slot := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		s.Observe(slot, float64(slot))
		_ = s.Stats(32)
		slot++
	}); n != 0 {
		t.Fatalf("enabled observe: %.1f allocs/op, want 0", n)
	}
}

func TestKindNames(t *testing.T) {
	for _, k := range []Kind{Gauge, Counter, hist} {
		got, ok := kindByName(k.String())
		if !ok || got != k {
			t.Fatalf("KindByName(%q) = %v %v", k.String(), got, ok)
		}
	}
	if _, ok := kindByName("bogus"); ok {
		t.Fatal("bogus kind accepted")
	}
}

func TestTrendDirection(t *testing.T) {
	up := SeriesSnapshot{Name: "g", Kind: "gauge"}
	for i := 0; i < 20; i++ {
		up.Points = append(up.Points, SnapPoint{Slot: int64(i), Value: float64(i)})
	}
	if tr := TrendOf(up); tr.Direction != "up" || tr.First != 0 || tr.Last != 19 {
		t.Fatalf("up trend = %+v", tr)
	}
	flat := SeriesSnapshot{Name: "g", Kind: "gauge"}
	for i := 0; i < 20; i++ {
		flat.Points = append(flat.Points, SnapPoint{Slot: int64(i), Value: 5})
	}
	if tr := TrendOf(flat); tr.Direction != "flat" || tr.Mean != 5 {
		t.Fatalf("flat trend = %+v", tr)
	}
}

func TestCompareRegressions(t *testing.T) {
	mk := func(name string, vals ...float64) SeriesSnapshot {
		s := SeriesSnapshot{Name: name, Kind: "gauge", Shard: fleetShard}
		for i, v := range vals {
			s.Points = append(s.Points, SnapPoint{Slot: int64(i), Value: v})
		}
		return s
	}
	baseline := []SeriesSnapshot{
		mk("miss_rate", 0.01, 0.01, 0.01), // bad-up
		mk("mean_quality", 4.0, 4.0, 4.0), // good-up
		mk("vanished", 1, 1, 1),
	}
	current := []SeriesSnapshot{
		mk("miss_rate", 0.05, 0.05, 0.05), // 5x worse -> regression
		mk("mean_quality", 3.9, 3.9, 3.9), // 2.5% dip, within 10% -> fine
	}
	got := Compare(baseline, current, 0.10, 0.001)
	if len(got) != 2 {
		t.Fatalf("regressions = %+v, want miss_rate + vanished", got)
	}
	if got[0].Key != "mean_quality#-1" && got[0].Key != "miss_rate#-1" {
		t.Fatalf("unexpected first regression %q", got[0].Key)
	}
	keys := []string{got[0].Key, got[1].Key}
	wantKeys := []string{"miss_rate#-1", "vanished#-1"}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Fatalf("regression keys = %v, want %v", keys, wantKeys)
	}
	if !math.IsNaN(got[1].Current) {
		t.Fatalf("vanished series should read NaN current, got %g", got[1].Current)
	}

	// quality dropping past tolerance is a regression for good-up series
	current[1] = mk("mean_quality", 3.0, 3.0, 3.0)
	got = Compare(baseline[:2], current, 0.10, 0.001)
	if len(got) != 2 {
		t.Fatalf("quality drop not caught: %+v", got)
	}

	// improvements never flag
	better := []SeriesSnapshot{
		mk("miss_rate", 0.001, 0.001, 0.001),
		mk("mean_quality", 4.5, 4.5, 4.5),
	}
	if got := Compare(baseline[:2], better, 0.10, 0.001); len(got) != 0 {
		t.Fatalf("improvement flagged as regression: %+v", got)
	}
}

func TestCompareAbsFloor(t *testing.T) {
	mk := func(v float64) []SeriesSnapshot {
		return []SeriesSnapshot{{Name: "drop_total", Kind: "gauge",
			Points: []SnapPoint{{Slot: 0, Value: v}}}}
	}
	// 0 -> 0.0005 is a huge ratio but below the absolute floor: no flag
	if got := Compare(mk(0), mk(0.0005), 0.10, 0.001); len(got) != 0 {
		t.Fatalf("sub-floor drift flagged: %+v", got)
	}
	if got := Compare(mk(0), mk(0.5), 0.10, 0.001); len(got) != 1 {
		t.Fatalf("real drift from zero baseline not flagged: %+v", got)
	}
}

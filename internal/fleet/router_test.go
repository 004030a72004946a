package fleet

import (
	"testing"

	"repro/internal/obs"
)

func threeShards() []ShardState {
	return []ShardState{
		{ID: 0, Zone: 0, Alive: true, Sessions: 4, BudgetMbps: 100, DemandMbps: 80},
		{ID: 1, Zone: 1, Alive: true, Sessions: 2, BudgetMbps: 100, DemandMbps: 40},
		{ID: 2, Zone: 2, Alive: true, Sessions: 6, BudgetMbps: 100, DemandMbps: 90},
	}
}

func TestLeastLoadedPlacesOnLowestLoad(t *testing.T) {
	r := NewRouter(LeastLoaded{}, nil)
	got := r.Place(0, SessionInfo{ID: 7, DemandMbps: 30}, threeShards(), obs.PlaceArrival, -1)
	if got != 1 {
		t.Fatalf("Place = %d, want 1 (lowest demand/budget)", got)
	}
	if r.placedCount() != 1 || r.failed != 0 {
		t.Fatalf("counters: placed=%d failed=%d", r.placedCount(), r.failed)
	}
}

func TestPlaceTieBreaksOnLowestIndex(t *testing.T) {
	shards := []ShardState{
		{ID: 0, Alive: true, BudgetMbps: 100, DemandMbps: 50},
		{ID: 1, Alive: true, BudgetMbps: 100, DemandMbps: 50},
	}
	r := NewRouter(LeastLoaded{}, nil)
	for i := 0; i < 5; i++ {
		if got := r.Place(i, SessionInfo{ID: uint32(i)}, shards, obs.PlaceArrival, -1); got != 0 {
			t.Fatalf("tie broke to shard %d, want 0", got)
		}
	}
}

func TestPlaceSkipsDeadDrainingAndSource(t *testing.T) {
	shards := threeShards()
	shards[1].Alive = false   // best shard is dead
	shards[2].Draining = true // next is draining
	r := NewRouter(LeastLoaded{}, nil)
	if got := r.Place(0, SessionInfo{ID: 1}, shards, obs.PlaceShardKill, 1); got != 0 {
		t.Fatalf("Place = %d, want 0 (only accepting shard)", got)
	}
	// Excluding the sole survivor must fail the placement.
	if got := r.Place(1, SessionInfo{ID: 2}, shards, obs.PlaceShardDrain, 0); got != -1 {
		t.Fatalf("Place = %d, want -1", got)
	}
	if r.failed != 1 {
		t.Fatalf("Failed = %d, want 1", r.failed)
	}
}

func TestLocalityAwarePrefersZoneUnlessOverloaded(t *testing.T) {
	shards := threeShards()
	r := NewRouter(localityAware{}, nil)
	// Zone 2's shard carries more load than zone 1's, but the bonus wins.
	if got := r.Place(0, SessionInfo{ID: 1, Zone: 2, DemandMbps: 5}, shards, obs.PlaceArrival, -1); got != 2 {
		t.Fatalf("Place = %d, want 2 (zone affinity)", got)
	}
	// Once the local shard is past the bonus margin, load wins again.
	shards[2].DemandMbps = 200
	if got := r.Place(1, SessionInfo{ID: 2, Zone: 2, DemandMbps: 5}, shards, obs.PlaceArrival, -1); got != 1 {
		t.Fatalf("Place = %d, want 1 (overloaded local shard)", got)
	}
}

func TestSLOAwareAvoidsPagingShard(t *testing.T) {
	shards := threeShards()
	shards[1].PageFrac = 0.8 // least-loaded shard is paging hard
	r := NewRouter(sloAware{}, nil)
	if got := r.Place(0, SessionInfo{ID: 1, DemandMbps: 5}, shards, obs.PlaceArrival, -1); got != 0 {
		t.Fatalf("Place = %d, want 0 (burn-rate penalty repels shard 1)", got)
	}
}

func TestPlaceRecordsDecision(t *testing.T) {
	pr := obs.NewPlacementRecorder(obs.PlacementRecorderOptions{RingSize: 8})
	r := NewRouter(sloAware{}, pr)
	r.Place(42, SessionInfo{ID: 9, Zone: 1, DemandMbps: 10}, threeShards(), obs.PlaceShardDrain, 2)
	recs := pr.Recent(1)
	if len(recs) != 1 {
		t.Fatal("no placement record")
	}
	rec := recs[0]
	if rec.Slot != 42 || rec.Session != 9 || rec.Reason != obs.PlaceShardDrain ||
		rec.From != 2 || rec.Scorer != "slo-burn" {
		t.Fatalf("record = %+v", rec)
	}
	// The source shard is excluded from candidates, the rest scored.
	if len(rec.Scores) != 2 {
		t.Fatalf("scores = %+v, want 2 candidates", rec.Scores)
	}
	for _, s := range rec.Scores {
		if s.Shard == 2 {
			t.Fatal("source shard scored as a candidate")
		}
	}
}

func TestScorerByName(t *testing.T) {
	for name, want := range map[string]string{
		"":             "least-loaded",
		"least-loaded": "least-loaded",
		"locality":     "locality",
		"slo-burn":     "slo-burn",
		"slo":          "slo-burn",
	} {
		s, err := ScorerByName(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if s.Name() != want {
			t.Fatalf("%q -> %s, want %s", name, s.Name(), want)
		}
	}
	if _, err := ScorerByName("bogus"); err == nil {
		t.Fatal("want error for unknown scorer")
	}
}

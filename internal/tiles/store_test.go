package tiles

import (
	"bytes"
	"sync"
	"testing"
)

func mustID(t *testing.T, x, z int32, tile TileID, level int) VideoID {
	t.Helper()
	id, err := PackVideoID(CellID{x, z}, tile, level)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestStorePayloadDeterministic(t *testing.T) {
	m := NewSizeModel(1)
	s1 := NewStore(m, 16, 60)
	s2 := NewStore(m, 16, 60)
	id := mustID(t, 3, 4, 2, 5)
	if !bytes.Equal(s1.Payload(id), s2.Payload(id)) {
		t.Errorf("payloads differ across stores")
	}
}

func TestStorePayloadSizeMatchesModel(t *testing.T) {
	m := NewSizeModel(1)
	s := NewStore(m, 16, 60)
	id := mustID(t, 1, 1, 0, 3)
	cell, tile, level := id.Unpack()
	want := m.tileBytes(cell, tile, level, 60)
	if got := len(s.Payload(id)); got != want {
		t.Errorf("payload length = %d, want %d", got, want)
	}
}

func TestStoreCacheHitMiss(t *testing.T) {
	s := NewStore(NewSizeModel(1), 8, 60)
	id := mustID(t, 0, 0, 0, 1)
	s.Payload(id)
	s.Payload(id)
	hits, misses := s.stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1, 1", hits, misses)
	}
}

func TestStoreEviction(t *testing.T) {
	s := NewStore(NewSizeModel(1), 4, 60)
	ids := make([]VideoID, 6)
	for i := range ids {
		ids[i] = mustID(t, int32(i), 0, 0, 1)
		s.Payload(ids[i])
	}
	if got := s.Cached(); got != 4 {
		t.Errorf("cached = %d, want 4", got)
	}
	// Oldest two must have been evicted: fetching them again is a miss.
	_, missesBefore := s.stats()
	s.Payload(ids[0])
	_, missesAfter := s.stats()
	if missesAfter != missesBefore+1 {
		t.Errorf("expected a miss after eviction")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore(NewSizeModel(1), 32, 60)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := mustID(t, int32(i%10), int32(g%3), TileID(i%4), i%6+1)
				if len(s.Payload(id)) == 0 {
					t.Errorf("empty payload")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestClientRAMThresholdRelease(t *testing.T) {
	r := NewClientRAM(3)
	var released []VideoID
	for i := 0; i < 5; i++ {
		released = append(released, r.Add(mustID(t, int32(i), 0, 0, 1))...)
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
	if len(released) != 2 {
		t.Fatalf("released %d tiles, want 2", len(released))
	}
	// Oldest tiles go first.
	want0 := mustID(t, 0, 0, 0, 1)
	want1 := mustID(t, 1, 0, 0, 1)
	if released[0] != want0 || released[1] != want1 {
		t.Errorf("released %v, want [%v %v]", released, want0, want1)
	}
	if r.Holds(want0) {
		t.Errorf("released tile still held")
	}
	if !r.Holds(mustID(t, 4, 0, 0, 1)) {
		t.Errorf("newest tile not held")
	}
}

func TestClientRAMRefresh(t *testing.T) {
	r := NewClientRAM(2)
	a := mustID(t, 0, 0, 0, 1)
	b := mustID(t, 1, 0, 0, 1)
	c := mustID(t, 2, 0, 0, 1)
	r.Add(a)
	r.Add(b)
	if rel := r.Add(a); rel != nil { // refresh, no release
		t.Errorf("refresh released %v", rel)
	}
	rel := r.Add(c) // b is now oldest
	if len(rel) != 1 || rel[0] != b {
		t.Errorf("released %v, want [%v]", rel, b)
	}
}

func TestClientRAMMinThreshold(t *testing.T) {
	r := NewClientRAM(0)
	a := mustID(t, 0, 0, 0, 1)
	b := mustID(t, 1, 0, 0, 1)
	r.Add(a)
	rel := r.Add(b)
	if len(rel) != 1 || rel[0] != a {
		t.Errorf("threshold should clamp to 1: released %v", rel)
	}
}

func TestDeliveryLedger(t *testing.T) {
	l := NewDeliveryLedger()
	a := mustID(t, 0, 0, 0, 1)
	b := mustID(t, 1, 0, 0, 1)
	if l.Has(a) {
		t.Errorf("empty ledger should not have %v", a)
	}
	l.MarkDelivered(a)
	l.MarkDelivered(b)
	if !l.Has(a) || !l.Has(b) || l.count() != 2 {
		t.Errorf("ledger should hold both tiles")
	}
	l.MarkReleased(a)
	if l.Has(a) {
		t.Errorf("released tile should be forgotten")
	}
	if !l.Has(b) {
		t.Errorf("unreleased tile should remain")
	}
}

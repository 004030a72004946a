package tiles

import (
	"testing"

	"repro/internal/obs"
)

// TestStoreInstrument checks the cache counters mirror into obs instruments
// and the hit ratio tracks Stats.
func TestStoreInstrument(t *testing.T) {
	s := NewStore(NewSizeModel(1), 8, 60)
	reg := obs.NewRegistry()
	hits := reg.Counter("hits")
	misses := reg.Counter("misses")
	s.Instrument(hits, misses)

	a := mustID(t, 0, 0, 0, 1)
	b := mustID(t, 0, 0, 1, 1)
	s.Payload(a) // miss
	s.Payload(a) // hit
	s.Payload(b) // miss
	s.Payload(a) // hit
	s.Payload(b) // hit

	if got := hits.Value(); got != 3 {
		t.Errorf("hit counter = %d, want 3", got)
	}
	if got := misses.Value(); got != 2 {
		t.Errorf("miss counter = %d, want 2", got)
	}
	sh, sm := s.stats()
	if sh != 3 || sm != 2 {
		t.Errorf("Stats = (%d,%d), want (3,2)", sh, sm)
	}
	if got, want := s.HitRatio(), 3.0/5.0; got != want {
		t.Errorf("HitRatio = %v, want %v", got, want)
	}
}

// TestStoreUninstrumented: counters stay optional; a bare store must not
// panic and must report a zero ratio before any lookup.
func TestStoreUninstrumented(t *testing.T) {
	s := NewStore(NewSizeModel(1), 8, 60)
	if got := s.HitRatio(); got != 0 {
		t.Errorf("empty store HitRatio = %v, want 0", got)
	}
	s.Payload(mustID(t, 1, 2, 0, 1)) // nil counters: must be a no-op, not a panic
	if got := s.HitRatio(); got != 0 {
		t.Errorf("all-miss HitRatio = %v, want 0", got)
	}
}

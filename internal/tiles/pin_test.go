package tiles

import (
	"bytes"
	"sync"
	"testing"
)

// synthesize returns the n payload bytes the store generates for seed.
func synthesize(seed uint64, n int) []byte {
	out := make([]byte, n)
	fill(out, seed)
	return out
}

// want is the payload a store over NewSizeModel(1) at 60 FPS serves for id.
func want(id VideoID) []byte {
	cell, tile, level := id.Unpack()
	return synthesize(uint64(id), NewSizeModel(1).tileBytes(cell, tile, level, 60))
}

// TestPinHammer: holders pin payloads, read them while they hold them and
// release them, while a store four entries large evicts on most fetches and
// recycles what it evicts. Every byte a holder reads must be its tile's
// until the release; run it under -race as well.
func TestPinHammer(t *testing.T) {
	s := NewStore(NewSizeModel(1), 4, 60)
	const holders, rounds, distinct = 8, 200, 24
	ids := make([]VideoID, distinct)
	wants := make([][]byte, distinct)
	for i := range ids {
		ids[i] = mustID(t, int32(i%6), int32(i/6), TileID(i%NumTiles), i%2+1)
		wants[i] = want(ids[i])
	}
	type hold struct {
		pin   Pin
		bytes []byte
		k     int
	}
	var wg sync.WaitGroup
	for g := range holders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []hold
			defer func() {
				for _, h := range held {
					h.pin.Release()
				}
			}()
			for r := range rounds {
				k := (g*7 + r*5) % distinct
				b, p := s.Pin(ids[k])
				held = append(held, hold{p, b, k})
				// Hold up to three payloads across other holders' misses,
				// and check every one before letting the oldest go.
				for _, h := range held {
					if !bytes.Equal(h.bytes, wants[h.k]) {
						t.Errorf("holder %d round %d: tile %d is not its bytes while pinned", g, r, h.k)
						return
					}
				}
				if len(held) == 3 {
					held[0].pin.Release()
					held = held[1:]
				}
			}
		}()
	}
	wg.Wait()
	hits, misses := s.stats()
	if hits+misses != holders*rounds || misses < holders*rounds/2 {
		t.Errorf("hits %d, misses %d over %d fetches: the store did not churn", hits, misses, holders*rounds)
	}
	if s.Cached() != 4 {
		t.Errorf("cached %d, want 4", s.Cached())
	}
}

// TestPayloadNeverRecycled: bytes Payload handed out stay the tile's after
// the entry is evicted and the store has served many misses since.
func TestPayloadNeverRecycled(t *testing.T) {
	s := NewStore(NewSizeModel(1), 2, 60)
	first := mustID(t, 0, 0, 0, 1)
	kept := s.Payload(first)
	b, p := s.Pin(first)
	if &b[0] != &kept[0] {
		t.Fatal("Pin of a cached tile served other bytes than Payload")
	}
	p.Release()
	for i := range 50 {
		_, p := s.Pin(mustID(t, int32(i+1), 0, 0, 1))
		p.Release()
	}
	if !bytes.Equal(kept, want(first)) {
		t.Fatal("a payload Payload returned was overwritten")
	}
}

// TestStoreMissReusesEvicted: at capacity, after warm-up, a miss allocates
// nothing: it fills the entry and the buffer its eviction freed. Every
// fetch still counts as the miss it is.
func TestStoreMissReusesEvicted(t *testing.T) {
	const capacity = 8
	s := NewStore(NewSizeModel(1), capacity, 60)
	ids := make([]VideoID, 3*capacity)
	for i := range ids {
		ids[i] = mustID(t, int32(i), 1, TileID(i%NumTiles), 1)
	}
	next := 0
	miss := func() {
		b, p := s.Pin(ids[next%len(ids)])
		next++
		if len(b) == 0 {
			t.Fatal("empty payload")
		}
		p.Release()
	}
	for range 4 * len(ids) {
		miss()
	}
	_, before := s.stats()
	if allocs := testing.AllocsPerRun(200, miss); allocs != 0 {
		t.Errorf("store miss at capacity = %.2f allocs, want 0", allocs)
	}
	if _, after := s.stats(); after-before != 201 {
		t.Errorf("%d misses over 201 fetches of tiles evicted long ago", after-before)
	}
	b, p := s.Pin(ids[0])
	defer p.Release()
	if !bytes.Equal(b, want(ids[0])) {
		t.Error("a reused buffer holds the wrong bytes")
	}
}

// TestClientRAMAddAppendAllocs: at the threshold, AddAppend into a buffer
// with room releases one tile and allocates nothing.
func TestClientRAMAddAppendAllocs(t *testing.T) {
	r := NewClientRAM(16)
	next := int32(0)
	buf := make([]VideoID, 0, 4)
	add := func() {
		buf = r.AddAppend(buf[:0], mustID(t, next, 2, 0, 1))
		next++
	}
	for range 32 {
		add()
	}
	if allocs := testing.AllocsPerRun(200, add); allocs != 0 {
		t.Errorf("AddAppend at threshold = %.2f allocs, want 0", allocs)
	}
	if len(buf) != 1 || buf[0] != mustID(t, next-17, 2, 0, 1) || r.Len() != 16 {
		t.Errorf("released %v, %d held; want the tile added 17 ago and 16", buf, r.Len())
	}
}

package tiles

import (
	"encoding/binary"
	"sync"

	"repro/internal/obs"
)

// Store is the offline-rendered content database: it serves the payload of
// any video ID on demand. Payload bytes are deterministic pseudo-random data
// of the size the SizeModel dictates, standing in for the paper's 171 GB of
// pre-encoded tiles. A bounded LRU buffer fronts the generator, mirroring
// the server's in-memory tile cache that "avoids the swapping overhead".
type Store struct {
	model *SizeModel
	fps   float64

	mu       sync.Mutex
	capacity int
	order    lruList // oldest = least recently used
	cache    map[VideoID]*storedTile
	hits     int
	misses   int

	// Evicted entries no reader holds, and their payload buffers, for the
	// next misses to fill instead of allocating (see recycleLocked).
	spareTiles []*storedTile
	spareBufs  [][]byte

	// Optional observability counters (nil-safe no-ops when unset).
	hitCounter  *obs.Counter
	missCounter *obs.Counter
}

// maxSpare bounds a Store's spare entries and spare payload buffers. A miss
// at capacity evicts one entry and fills one, so the lists stay short; what
// the bound holds is the entries that come back later, at the last release
// of a pin they were evicted under.
const maxSpare = 64

// storedTile is one entry of a Store's or a ClientRAM's recency order. The
// links live in the entry itself, so an insert allocates the entry and
// nothing else and the ID is never boxed.
type storedTile struct {
	prev, next *storedTile
	id         VideoID

	// A Store's entries only (guarded by Store.mu): the bytes, the readers
	// holding them through a Pin, whether Payload handed them out (then they
	// are never written again), and whether the entry left the cache while
	// pinned (then the last Release recycles it).
	payload []byte
	pins    int
	shared  bool
	evicted bool
}

// lruList is a doubly-linked ring of storedTiles through a sentinel; the
// zero value is not ready, call init.
type lruList struct {
	root storedTile // root.next = oldest, root.prev = newest
	len  int
}

func (l *lruList) init() { l.root.prev, l.root.next = &l.root, &l.root }

// oldest returns the least recently added or refreshed entry; the list must
// not be empty.
func (l *lruList) oldest() *storedTile { return l.root.next }

func (l *lruList) pushNewest(t *storedTile) {
	last := l.root.prev
	t.prev, t.next = last, &l.root
	last.next, l.root.prev = t, t
	l.len++
}

func (l *lruList) remove(t *storedTile) {
	t.prev.next, t.next.prev = t.next, t.prev
	t.prev, t.next = nil, nil
	l.len--
}

func (l *lruList) refresh(t *storedTile) {
	l.remove(t)
	l.pushNewest(t)
}

// NewStore returns a store over the given size model. capacity bounds the
// number of cached tiles (<= 0 means 4096). fps sets the display rate used
// to convert rates to per-frame bytes.
func NewStore(model *SizeModel, capacity int, fps float64) *Store {
	if capacity <= 0 {
		capacity = 4096
	}
	if fps <= 0 {
		fps = 60
	}
	s := &Store{
		model:    model,
		fps:      fps,
		capacity: capacity,
		cache:    make(map[VideoID]*storedTile, capacity),
	}
	s.order.init()
	return s
}

// Payload returns the encoded bytes of a tile, generating and caching them
// if necessary. The returned slice must not be modified, and the store never
// modifies it either.
func (s *Store) Payload(id VideoID) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.fetchLocked(id)
	t.shared = true
	return t.payload
}

// Pin is a reader's hold on a payload from Store.Pin. The zero Pin holds
// nothing.
type Pin struct {
	s *Store
	t *storedTile
}

// Pin returns the encoded bytes of a tile like Payload, and holds them: they
// stay as they are until the Pin is released, after which the store may
// reuse the buffer for another tile once the entry is evicted. The returned
// slice must not be modified. Hits and misses count as in Payload.
func (s *Store) Pin(id VideoID) ([]byte, Pin) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.fetchLocked(id)
	t.pins++
	return t.payload, Pin{s: s, t: t}
}

// Release ends the hold. Call it once per Pin, after the last read of its
// bytes; a Pin never released costs only the reuse of its buffer.
func (p Pin) Release() {
	if p.t == nil {
		return
	}
	p.s.mu.Lock()
	defer p.s.mu.Unlock()
	if p.t.pins--; p.t.pins == 0 && p.t.evicted {
		p.s.recycleLocked(p.t)
	}
}

// fetchLocked returns id's entry, generating it on a miss. At capacity the
// least recently used entry is evicted before the new one is filled, so the
// miss can reuse what it leaves.
func (s *Store) fetchLocked(id VideoID) *storedTile {
	if t, ok := s.cache[id]; ok {
		s.order.refresh(t)
		s.hits++
		s.hitCounter.Inc()
		return t
	}
	s.misses++
	s.missCounter.Inc()
	for s.order.len >= s.capacity {
		old := s.order.oldest()
		s.order.remove(old)
		delete(s.cache, old.id)
		if old.pins > 0 {
			old.evicted = true
		} else {
			s.recycleLocked(old)
		}
	}
	cell, tile, level := id.Unpack()
	n := s.model.tileBytes(cell, tile, level, s.fps)
	var t *storedTile
	if k := len(s.spareTiles); k > 0 {
		t, s.spareTiles = s.spareTiles[k-1], s.spareTiles[:k-1]
	} else {
		t = new(storedTile)
	}
	t.id = id
	t.payload = s.bufferLocked(n)
	fill(t.payload, uint64(id))
	s.order.pushNewest(t)
	s.cache[id] = t
	return t
}

// recycleLocked keeps an evicted entry that no reader holds for the next
// miss, and its payload buffer unless Payload handed the bytes out.
func (s *Store) recycleLocked(t *storedTile) {
	if !t.shared {
		s.keepBufferLocked(t.payload)
	}
	*t = storedTile{}
	if len(s.spareTiles) < maxSpare {
		s.spareTiles = append(s.spareTiles, t)
	}
}

// keepBufferLocked adds b to the spare buffers. When they are full it
// replaces the smallest if b is larger, so the spares drift toward the
// largest tiles and a miss finds one to fit.
func (s *Store) keepBufferLocked(b []byte) {
	if cap(b) == 0 {
		return
	}
	if len(s.spareBufs) < maxSpare {
		s.spareBufs = append(s.spareBufs, b)
		return
	}
	small := 0
	for i, sb := range s.spareBufs {
		if cap(sb) < cap(s.spareBufs[small]) {
			small = i
		}
	}
	if cap(b) > cap(s.spareBufs[small]) {
		s.spareBufs[small] = b
	}
}

// bufferLocked returns n bytes for a payload: the smallest spare buffer that
// holds them, else a new one.
func (s *Store) bufferLocked(n int) []byte {
	best := -1
	for i, b := range s.spareBufs {
		if cap(b) >= n && (best < 0 || cap(b) < cap(s.spareBufs[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]byte, n)
	}
	b := s.spareBufs[best]
	last := len(s.spareBufs) - 1
	s.spareBufs[best], s.spareBufs[last] = s.spareBufs[last], nil
	s.spareBufs = s.spareBufs[:last]
	return b[:n]
}

// Instrument mirrors the cache hit/miss counters into observability
// instruments (nil instruments disable mirroring). Call before serving.
func (s *Store) Instrument(hits, misses *obs.Counter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hitCounter = hits
	s.missCounter = misses
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (s *Store) HitRatio() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if total := s.hits + s.misses; total > 0 {
		return float64(s.hits) / float64(total)
	}
	return 0
}

// stats returns cache hit/miss counters.
func (s *Store) stats() (hits, misses int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// Cached returns the number of tiles currently buffered.
func (s *Store) Cached() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.len
}

// fill overwrites out with deterministic bytes derived from the seed, so
// that a tile's payload is identical wherever it is generated (useful for
// end-to-end integrity checks in the transport tests).
func fill(out []byte, seed uint64) {
	n := len(out)
	x := seed
	i := 0
	for ; i+8 <= n; i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(out[i:i+8], x)
	}
	if i < n {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix(x))
		copy(out[i:], tail[:])
	}
}

// ClientRAM models the user-side tile memory of Section V: the client keeps
// received tiles until a device-specific threshold is reached, then releases
// the oldest tiles and tells the server (so it knows to retransmit them if
// requested again).
type ClientRAM struct {
	mu        sync.Mutex
	threshold int
	order     lruList
	held      map[VideoID]*storedTile
	spare     *storedTile // the last released entry, for the next Add
}

// NewClientRAM returns a RAM model holding up to threshold tiles (minimum 1).
func NewClientRAM(threshold int) *ClientRAM {
	if threshold < 1 {
		threshold = 1
	}
	r := &ClientRAM{
		threshold: threshold,
		held:      make(map[VideoID]*storedTile, threshold),
	}
	r.order.init()
	return r
}

// Add records a received tile and returns the IDs released to stay under
// the threshold (empty if none). Adding an already-held tile refreshes its
// age and releases nothing.
func (r *ClientRAM) Add(id VideoID) []VideoID {
	return r.AddAppend(nil, id)
}

// AddAppend is Add appending the released IDs to dst. At the threshold the
// entry it releases holds the new tile, so it allocates nothing once dst has
// room.
func (r *ClientRAM) AddAppend(dst []VideoID, id VideoID) []VideoID {
	r.mu.Lock()
	defer r.mu.Unlock()

	if t, ok := r.held[id]; ok {
		r.order.refresh(t)
		return dst
	}
	// Releasing before inserting leaves the same tiles held, in the same
	// order, as inserting first would: the new tile is never the oldest.
	for r.order.len >= r.threshold {
		old := r.order.oldest()
		r.order.remove(old)
		delete(r.held, old.id)
		dst = append(dst, old.id)
		r.spare = old
	}
	t := r.spare
	if t == nil {
		t = new(storedTile)
	}
	r.spare = nil
	t.id = id
	r.order.pushNewest(t)
	r.held[id] = t
	return dst
}

// Holds reports whether the tile is currently in RAM.
func (r *ClientRAM) Holds(id VideoID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.held[id]
	return ok
}

// Len returns the number of held tiles.
func (r *ClientRAM) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.order.len
}

// DeliveryLedger is the server-side record of which tiles each user already
// holds ("the server records the tiles that have already been delivered and
// will not transmit the same tiles again"). Release notifications remove
// entries so the tiles can be retransmitted later.
type DeliveryLedger struct {
	mu        sync.Mutex
	delivered map[VideoID]struct{}
}

// NewDeliveryLedger returns an empty ledger.
func NewDeliveryLedger() *DeliveryLedger {
	return &DeliveryLedger{delivered: make(map[VideoID]struct{})}
}

// MarkDelivered records an acknowledged tile.
func (l *DeliveryLedger) MarkDelivered(id VideoID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.delivered[id] = struct{}{}
}

// MarkReleased removes tiles the client reported releasing.
func (l *DeliveryLedger) MarkReleased(ids ...VideoID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, id := range ids {
		delete(l.delivered, id)
	}
}

// Has reports whether the user is known to hold the tile.
func (l *DeliveryLedger) Has(id VideoID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.delivered[id]
	return ok
}

// count returns the number of tiles recorded as delivered.
func (l *DeliveryLedger) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.delivered)
}

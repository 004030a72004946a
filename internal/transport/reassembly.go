package transport

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tiles"
)

// completeTile is a fully reassembled tile, annotated with the arrival
// window used for the paper's delay measurement ("we estimate the delay by
// computing the time duration between receiving the first and the last
// packet of the current time slot on the user-side").
type completeTile struct {
	Slot    uint32
	VideoID tiles.VideoID
	Payload []byte
}

// SlotStats summarizes one slot's arrivals on the client.
type SlotStats struct {
	Slot        uint32
	First, Last time.Time
	Bytes       int
	Packets     int
	Tiles       int    // complete tiles
	Trace       uint64 // trace ID carried by the slot's packets (0 = untraced)
	MaxRetry    int    // highest retransmission count seen in the slot
}

// Delay returns the first-to-last packet spacing (zero for single-packet
// slots).
func (s SlotStats) Delay() time.Duration {
	if s.Packets <= 1 {
		return 0
	}
	return s.Last.Sub(s.First)
}

// Reassembler rebuilds tiles from fragments and tracks per-slot arrival
// statistics. Incomplete tiles (packet loss) are discarded when their slot
// is flushed, mirroring the client rule that "each tile will either be
// displayed or dropped in each time slot".
//
// A tile's fragments are copied once, in arrival order, onto the end of the
// tile's buffer, so the memory a tile holds follows the bytes received for it
// and never what a header claims (a forged FragCount reserves nothing). The
// sender emits fragments in index order, so the buffer of a tile that arrived
// the way it was sent is its payload as it stands; only a tile whose
// fragments were reordered in flight is copied again, into index order.
type Reassembler struct {
	mu      sync.Mutex
	pending map[tileKey]*partialTile
	stats   map[uint32]*SlotStats
	done    []completeTile
	flushed []completeTile // what the last Flush returned, next to be filled

	free      []*partialTile // finished or dropped tiles' bookkeeping, reused
	freeStats []*SlotStats   // flushed slots' stats, reused
	spare     [][]byte       // payload buffers handed back through Reclaim
	largest   int            // bytes of the largest tile completed so far
	starts    []uint32       // scratch of inIndexOrder: payload offset of each fragment index

	// Optional observability counters (nil means disabled; see Instrument).
	cDuplicates *obs.Counter
	cDropped    *obs.Counter
}

type tileKey struct {
	slot uint32
	id   tiles.VideoID
}

// maxFreeTiles bounds the bookkeeping kept for reuse; a client holds a few
// tiles of one or two slots in flight at a time.
const maxFreeTiles = 32

// maxFreeStats bounds the slot stats kept for reuse: a client has a slot or
// two arriving at a time.
const maxFreeStats = 8

// maxSpareBuffers bounds the payload buffers kept for reuse: a slot's tiles
// for one client, a few times over.
const maxSpareBuffers = 64

// partialTile is a tile still missing fragments.
type partialTile struct {
	buf      []byte    // the fragments held, in arrival order
	count    int       // FragCount of the first fragment seen
	arrivals []arrival // one per fragment held, in buf order
	have     []uint64  // bitmap of the fragment indices held, grown to the highest seen
	shuffled bool      // some fragment arrived out of index order
}

type arrival struct {
	idx uint16
	end uint32 // offset in buf just past the fragment
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{
		pending: make(map[tileKey]*partialTile),
		stats:   make(map[uint32]*SlotStats),
	}
}

// Instrument attaches observability counters for duplicate/out-of-range
// fragments and for incomplete tiles dropped at slot flush (packet loss made
// visible). Nil counters are allowed (and free). Call before the first
// Ingest.
func (r *Reassembler) Instrument(duplicates, incompleteDropped *obs.Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cDuplicates, r.cDropped = duplicates, incompleteDropped
}

// Ingest processes one received packet at the given arrival time. It copies
// what it keeps of p, so the caller may decode the next datagram into the
// same Packet and buffer.
func (r *Reassembler) Ingest(p *Packet, now time.Time) {
	if p.Type != PacketTile || p.FragCount == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	st := r.stats[p.Slot]
	if st == nil {
		if n := len(r.freeStats); n > 0 {
			st, r.freeStats = r.freeStats[n-1], r.freeStats[:n-1]
		} else {
			st = new(SlotStats)
		}
		*st = SlotStats{Slot: p.Slot, First: now, Last: now}
		r.stats[p.Slot] = st
	}
	if now.Before(st.First) {
		st.First = now
	}
	if now.After(st.Last) {
		st.Last = now
	}
	st.Packets++
	st.Bytes += len(p.Payload)
	if st.Trace == 0 && p.Trace != 0 {
		st.Trace = p.Trace
	}
	if int(p.Retry) > st.MaxRetry {
		st.MaxRetry = int(p.Retry)
	}

	key := tileKey{slot: p.Slot, id: p.VideoID}
	pt := r.pending[key]
	if pt == nil {
		pt = r.newPartial(p)
		r.pending[key] = pt
	}
	idx := int(p.FragIdx)
	word, bit := idx>>6, uint64(1)<<(idx&63)
	if idx >= pt.count || (word < len(pt.have) && pt.have[word]&bit != 0) {
		r.cDuplicates.Inc()
		return // out-of-range or duplicate fragment
	}
	for len(pt.have) <= word {
		pt.have = append(pt.have, 0)
	}
	pt.have[word] |= bit
	if idx != len(pt.arrivals) {
		pt.shuffled = true
	}
	pt.buf = append(pt.buf, p.Payload...)
	pt.arrivals = append(pt.arrivals, arrival{idx: p.FragIdx, end: uint32(len(pt.buf))})

	if len(pt.arrivals) == pt.count {
		payload := pt.buf
		if pt.shuffled {
			payload = r.inIndexOrder(pt)
		} else {
			pt.buf = nil // handed to the caller
		}
		r.done = append(r.done, completeTile{Slot: p.Slot, VideoID: p.VideoID, Payload: payload})
		r.largest = max(r.largest, len(payload))
		st.Tiles++
		delete(r.pending, key)
		r.recycle(pt)
	}
}

// newPartial returns the bookkeeping for a tile whose first fragment to
// arrive is p, reusing a finished tile's where there is one. The buffer starts
// at the size p's header implies, but at no more than the largest tile this
// reassembler has received whole, and grows by append from there: a header
// alone cannot reserve memory that no sender ever filled.
func (r *Reassembler) newPartial(p *Packet) *partialTile {
	var pt *partialTile
	if n := len(r.free); n > 0 {
		pt, r.free = r.free[n-1], r.free[:n-1]
	} else {
		pt = new(partialTile)
	}
	pt.count = int(p.FragCount)
	want := min(pt.count*len(p.Payload), max(r.largest, len(p.Payload)))
	if cap(pt.buf) < want {
		pt.buf = r.buffer(want)[:0]
	}
	return pt
}

// buffer returns n bytes of unspecified content for a payload: a buffer
// handed back through Reclaim that is large enough, else a new one.
func (r *Reassembler) buffer(n int) []byte {
	for i := len(r.spare) - 1; i >= 0; i-- {
		if b := r.spare[i]; cap(b) >= n {
			last := len(r.spare) - 1
			r.spare[i], r.spare[last] = r.spare[last], nil
			r.spare = r.spare[:last]
			return b[:n]
		}
	}
	return make([]byte, n)
}

// Reclaim hands the payloads of flushed tiles back for reuse by later
// tiles, and clears them in done. It is the one way a payload stops being
// the caller's: after Reclaim the caller must hold no reference to any of
// them, and a payload never passed to Reclaim is never written again. At
// most maxSpareBuffers are kept.
func (r *Reassembler) Reclaim(done []completeTile) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range done {
		if b := done[i].Payload; cap(b) > 0 && len(r.spare) < maxSpareBuffers {
			r.spare = append(r.spare, b)
		}
		done[i].Payload = nil
	}
}

// recycle keeps a finished or dropped tile's bookkeeping for the next tile.
func (r *Reassembler) recycle(pt *partialTile) {
	if len(r.free) == maxFreeTiles {
		return
	}
	clear(pt.have)
	*pt = partialTile{buf: pt.buf[:0], arrivals: pt.arrivals[:0], have: pt.have[:0]}
	r.free = append(r.free, pt)
}

// inIndexOrder returns the payload of a complete tile whose fragments
// arrived out of index order: a copy of its buffer with the fragments where
// their indices put them.
func (r *Reassembler) inIndexOrder(pt *partialTile) []byte {
	if cap(r.starts) < pt.count {
		r.starts = make([]uint32, pt.count)
	}
	starts := r.starts[:pt.count]
	var from uint32
	for _, a := range pt.arrivals {
		starts[a.idx] = a.end - from // the fragment's length, for now
		from = a.end
	}
	var at uint32
	for i, n := range starts {
		starts[i] = at
		at += n
	}
	out := r.buffer(len(pt.buf)) // every byte is overwritten below
	from = 0
	for _, a := range pt.arrivals {
		copy(out[starts[a.idx]:], pt.buf[from:a.end])
		from = a.end
	}
	return out
}

// Flush returns (and clears) the tiles completed so far. The slice is the
// caller's until the next Flush, which takes it back to fill again; the
// payloads stay the caller's, unless and until it passes them to Reclaim.
func (r *Reassembler) Flush() []completeTile {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.done
	clear(r.flushed)
	r.done, r.flushed = r.flushed[:0], out
	return out
}

// FlushSlot returns the slot's arrival stats and drops all state at or
// before that slot (late fragments of flushed slots are lost, as in the
// real client). Returns false if the slot saw no packets.
func (r *Reassembler) FlushSlot(slot uint32) (SlotStats, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out SlotStats
	st, ok := r.stats[slot]
	if ok {
		out = *st
	}
	for s, old := range r.stats {
		if s <= slot {
			delete(r.stats, s)
			if len(r.freeStats) < maxFreeStats {
				r.freeStats = append(r.freeStats, old)
			}
		}
	}
	for k, pt := range r.pending {
		if k.slot <= slot {
			r.recycle(pt)
			delete(r.pending, k)
			r.cDropped.Inc()
		}
	}
	if !ok {
		return SlotStats{Slot: slot}, false
	}
	return out, true
}

// pendingTiles reports the number of incomplete tiles (diagnostics).
func (r *Reassembler) pendingTiles() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// Incomplete returns the tiles of a slot that received some but not all of
// their fragments — the candidates for a loss NACK. Call before FlushSlot,
// which discards the partial state.
func (r *Reassembler) Incomplete(slot uint32) []tiles.VideoID {
	return r.IncompleteAppend(nil, slot)
}

// IncompleteAppend is Incomplete appending to dst.
func (r *Reassembler) IncompleteAppend(dst []tiles.VideoID, slot uint32) []tiles.VideoID {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range r.pending {
		if k.slot == slot {
			dst = append(dst, k.id)
		}
	}
	return dst
}

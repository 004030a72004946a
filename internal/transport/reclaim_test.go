package transport

import (
	"bytes"
	"testing"
	"time"
)

// TestReclaimReusesOnlyWhatWasHandedBack: a payload passed to Reclaim backs a
// later tile (in-order and reordered alike), a payload kept back is never
// written again, and the spare list stays bounded.
func TestReclaimReusesOnlyWhatWasHandedBack(t *testing.T) {
	r := NewReassembler()
	now := time.Unix(0, 0)
	receive := func(slot uint32, fill byte, reorder bool) []completeTile {
		frags := Fragment(1, slot, 5, bytes.Repeat([]byte{fill}, 3000), 600, 0)
		if reorder {
			frags[0], frags[2] = frags[2], frags[0]
		}
		for _, p := range frags {
			r.Ingest(p, now)
		}
		done := r.Flush()
		if len(done) != 1 || !bytes.Equal(done[0].Payload, bytes.Repeat([]byte{fill}, 3000)) {
			t.Fatalf("slot %d: %d tiles, or not the payload sent", slot, len(done))
		}
		return done
	}
	first := func(b []byte) *byte { return &b[:1][0] }

	kept := receive(0, 0xA1, false)[0].Payload
	done := receive(1, 0xB2, false)
	handedBack := first(done[0].Payload)
	r.Reclaim(done)
	if done[0].Payload != nil {
		t.Error("Reclaim left the payload reachable through the flushed slice")
	}

	next := receive(2, 0xC3, false)
	if first(next[0].Payload) != handedBack {
		t.Error("an in-order tile did not reuse the reclaimed buffer")
	}
	r.Reclaim(next)
	// Reordered tiles draw twice: an arrival buffer and the index-order copy.
	for slot := uint32(3); slot < 40; slot++ {
		r.Reclaim(receive(slot, byte(slot), slot%3 == 1))
	}
	if !bytes.Equal(kept, bytes.Repeat([]byte{0xA1}, 3000)) {
		t.Error("a payload never handed back was written again")
	}

	// More tiles than the spare list holds, handed back at once.
	many := make([]completeTile, 3*maxSpareBuffers)
	for i := range many {
		many[i].Payload = make([]byte, 16)
	}
	many[0].Payload = nil // a zero-length tile's payload: nothing to keep
	r.Reclaim(many)
	if len(r.spare) > maxSpareBuffers {
		t.Errorf("%d spare buffers kept, bound is %d", len(r.spare), maxSpareBuffers)
	}
}

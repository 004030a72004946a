package transport

import (
	"testing"
	"time"

	"repro/internal/tiles"
)

// fuzzBase returns a well-formed two-fragment packet to mutate.
func fuzzBase() []byte {
	return (&Packet{
		Type: PacketTile, User: 1, Slot: 2, VideoID: tiles.VideoID(77),
		FragIdx: 0, FragCount: 2, Seq: 9, Trace: 0xABCD,
		Payload: []byte("fuzz-tile-payload"),
	}).Encode(nil)
}

// FuzzReassembly hardens the receive path against the chaos injectors'
// corrupt/duplicate/reorder faults: arbitrary datagrams and storms of
// inconsistent fragment headers must never panic the reassembler — malformed
// input is rejected at Decode (counted and dropped by the client) and
// inconsistent-but-decodable fragments are absorbed as duplicates or
// incomplete tiles.
func FuzzReassembly(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzBase())
	short := fuzzBase()
	f.Add(short[:HeaderSize-1])
	corrupt := fuzzBase()
	corrupt[12] ^= 0x80
	f.Add(corrupt)
	// A fragment-field storm seed (drives path 3 below).
	f.Add([]byte{0, 1, 0, 3, 0, 1, 1, 3, 0, 1, 2, 3, 0, 1, 2, 0, 5, 5, 9, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReassembler()
		now := time.Unix(0, 0)

		// Path 1: the raw input as one datagram.
		if p, err := Decode(data); err == nil {
			r.Ingest(p, now)
		}

		// Path 2: a valid datagram XOR-corrupted by the input (the corrupt
		// injector's view of the world). If it still decodes, ingest it.
		base := fuzzBase()
		for i, b := range data {
			if i >= len(base) {
				break
			}
			base[i] ^= b
		}
		if p, err := Decode(base); err == nil {
			r.Ingest(p, now)
		}

		// Path 3: a storm of decodable packets with input-driven,
		// deliberately inconsistent fragment geometry (FragIdx >= FragCount,
		// count disagreement across fragments of one tile, duplicates).
		for i := 0; i+4 <= len(data); i += 4 {
			p := &Packet{
				Type:      PacketTile,
				User:      1,
				Slot:      uint32(data[i] % 8),
				VideoID:   tiles.VideoID(data[i+1] % 4),
				FragIdx:   uint16(data[i+2] % 7),
				FragCount: uint16(data[i+3] % 7),
				Seq:       uint32(i),
				Payload:   data[i : i+4],
			}
			// Round-trip through the wire format so the storm also exercises
			// Encode/Decode consistency.
			dec, err := Decode(p.Encode(nil))
			if err != nil {
				t.Fatalf("encoded packet failed decode: %v", err)
			}
			r.Ingest(dec, now)
		}

		// Drain everything; none of these calls may panic.
		r.Flush()
		for s := uint32(0); s < 8; s++ {
			r.Incomplete(s)
			r.FlushSlot(s)
		}
		if r.pendingTiles() != 0 {
			t.Fatalf("pending tiles survived a full flush: %d", r.pendingTiles())
		}
	})
}

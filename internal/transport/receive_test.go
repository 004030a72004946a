package transport

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/tiles"
)

// checksumBytewise is the checksum as it was first written, one byte at a
// time: the oracle for the word-wise sum.
func checksumBytewise(data []byte) uint16 {
	var sum uint16
	for i, b := range data {
		if i == 30 || i == 31 {
			continue
		}
		sum += uint16(b)
	}
	return sum
}

func TestChecksumMatchesBytewiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := make([]byte, 2*DefaultMTU)
	rng.Read(random)
	ones := bytes.Repeat([]byte{0xFF}, 2*DefaultMTU)
	for n := 0; n <= 2*DefaultMTU; n++ {
		// A fresh offset each length moves the data against the word grid.
		off := rng.Intn(2*DefaultMTU - n + 1)
		if got, want := checksum(random[off:off+n]), checksumBytewise(random[off:off+n]); got != want {
			t.Fatalf("random data, %d bytes: got %#04x, want %#04x", n, got, want)
		}
		if got, want := checksum(ones[:n]), checksumBytewise(ones[:n]); got != want {
			t.Fatalf("all-0xFF data, %d bytes: got %#04x, want %#04x", n, got, want)
		}
	}
	// The largest datagram UDP carries, all 0xFF: every lane at its maximum
	// through many folds.
	jumbo := bytes.Repeat([]byte{0xFF}, 65535)
	if got, want := checksum(jumbo), checksumBytewise(jumbo); got != want {
		t.Fatalf("all-0xFF jumbo: got %#04x, want %#04x", got, want)
	}
}

func TestDecodeIntoReturnsBareSentinels(t *testing.T) {
	wire := fuzzBase()
	badSum := append([]byte(nil), wire...)
	badSum[HeaderSize] ^= 1
	badMagic := append([]byte(nil), wire...)
	badMagic[0] ^= 1
	cases := []struct {
		data []byte
		want error
	}{
		{wire[:HeaderSize-1], errShortPacket},
		{badMagic, errBadMagic},
		{wire[:len(wire)-1], errBadLength},
		{badSum, errBadChecksum},
	}
	var p Packet
	for _, tc := range cases {
		// == and not errors.Is: the pump must not pay for a wrapped error
		// per bad datagram.
		if err := DecodeInto(&p, tc.data); err != tc.want {
			t.Errorf("got %v, want exactly %v", err, tc.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { DecodeInto(&p, tc.data) }); allocs != 0 {
			t.Errorf("%v: rejecting the datagram allocates %.0f times", tc.want, allocs)
		}
	}
}

// encodeTile returns the datagrams of one tile as the sender would put them
// on the wire.
func encodeTile(slot uint32, id tiles.VideoID, payload []byte, mtu int) [][]byte {
	var wires [][]byte
	for _, p := range Fragment(1, slot, id, payload, mtu, 0) {
		wires = append(wires, p.Encode(nil))
	}
	return wires
}

func TestReceivePathAllocs(t *testing.T) {
	payload := make([]byte, 10*(DefaultMTU-HeaderSize)-300) // ten fragments, the last one short
	rand.New(rand.NewSource(5)).Read(payload)
	r := NewReassembler()
	now := time.Unix(0, 0)
	var p Packet
	ingestTile := func(slot uint32) {
		for _, wire := range encodeTile(slot, 77, payload, DefaultMTU) {
			if err := DecodeInto(&p, wire); err != nil {
				t.Fatal(err)
			}
			r.Ingest(&p, now)
		}
	}
	ingestTile(0) // a first tile sizes the next ones' buffers
	r.Flush()

	// A fragment that is not its tile's first: decode and copy, nothing else.
	wires := encodeTile(1, 77, payload, DefaultMTU)
	next := 0
	allocs := testing.AllocsPerRun(len(wires)-2, func() {
		if next == 0 { // AllocsPerRun's warm-up call brings the tile's first fragment
			DecodeInto(&p, wires[0])
			r.Ingest(&p, now)
		}
		next++
		DecodeInto(&p, wires[next])
		r.Ingest(&p, now)
	})
	if allocs != 0 {
		t.Errorf("DecodeInto+Ingest of a non-first fragment = %.1f allocs, want 0", allocs)
	}
	if done := r.Flush(); len(done) != 1 || !bytes.Equal(done[0].Payload, payload) {
		t.Fatalf("%d tiles, or not the payload sent", len(done))
	}

	// A whole tile in a slot of its own, received, flushed and its slot
	// closed: the payload buffer and the slot's stats.
	const wholeTileAllocs = 2
	slot := uint32(10)
	wireSets := make([][][]byte, 52)
	for i := range wireSets {
		wireSets[i] = encodeTile(slot+uint32(i), 77, payload, DefaultMTU)
	}
	i := 0
	allocs = testing.AllocsPerRun(len(wireSets)-2, func() {
		for _, wire := range wireSets[i] {
			DecodeInto(&p, wire)
			r.Ingest(&p, now)
		}
		done := r.Flush()
		if len(done) != 1 || !bytes.Equal(done[0].Payload, payload) {
			t.Fatalf("slot %d: %d tiles, or not the payload sent", slot+uint32(i), len(done))
		}
		r.FlushSlot(slot + uint32(i))
		i++
	})
	if allocs > wholeTileAllocs {
		t.Errorf("a whole ten-fragment tile = %.1f allocs, want <= %d", allocs, wholeTileAllocs)
	}
}

// One datagram must not be able to make the receiver reserve what its
// header claims: memory follows bytes received.
func TestForgedFragCountReservesNothing(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	payload := []byte("forged")
	now := time.Unix(0, 0)
	const tilesForged = 256

	r := NewReassembler()
	first := allocated(func() {
		for i := 0; i < tilesForged; i++ {
			r.Ingest(&Packet{Type: PacketTile, User: 1, Slot: 1, VideoID: tiles.VideoID(i),
				FragIdx: 0, FragCount: 65535, Payload: payload}, now)
		}
	})
	// Map growth, a partialTile and a few bytes of buffer per tile; 65535
	// fragment slots were 1.5 MB per tile.
	if per := first / tilesForged; per > 1024 {
		t.Errorf("a forged first fragment of 65535 reserved %d bytes", per)
	}

	// The highest index the header admits costs the index bitmap up to it
	// (8 KiB), still nothing like 65535 fragments.
	last := allocated(func() {
		for i := 0; i < tilesForged; i++ {
			r.Ingest(&Packet{Type: PacketTile, User: 1, Slot: 2, VideoID: tiles.VideoID(i),
				FragIdx: 65534, FragCount: 65535, Payload: payload}, now)
		}
	})
	if per := last / tilesForged; per > 48<<10 {
		t.Errorf("a forged last fragment of 65535 reserved %d bytes", per)
	}
	if got := r.pendingTiles(); got != 2*tilesForged {
		t.Fatalf("pending = %d, want %d", got, 2*tilesForged)
	}
	r.FlushSlot(2)
	if got := r.pendingTiles(); got != 0 {
		t.Fatalf("pending after flush = %d", got)
	}
}

// Reassembly does not depend on fragment size or arrival order: the tile is
// its fragments in index order, whichever arrives first and whatever each
// one's length.
func TestReassemblyOrderAndFragmentSize(t *testing.T) {
	payload := make([]byte, 5000)
	rand.New(rand.NewSource(9)).Read(payload)
	now := time.Unix(0, 0)

	for _, mtu := range []int{HeaderSize + 1, 577, DefaultMTU, 9000} {
		frags := Fragment(1, 3, 77, payload, mtu, 0)
		orders := map[string][]int{"in order": nil, "last first": nil, "reversed": nil}
		for i := range frags {
			orders["in order"] = append(orders["in order"], i)
			orders["last first"] = append(orders["last first"], (i+len(frags)-1)%len(frags))
			orders["reversed"] = append(orders["reversed"], len(frags)-1-i)
		}
		for name, order := range orders {
			r := NewReassembler()
			for _, i := range order {
				r.Ingest(frags[i], now)
			}
			done := r.Flush()
			if len(done) != 1 || !bytes.Equal(done[0].Payload, payload) {
				t.Errorf("mtu %d, %s: %d tiles, or not the payload sent", mtu, name, len(done))
			}
		}
	}

	// Fragments of unequal lengths, shuffled.
	cuts := []int{0, 7, 7, 1207, 1208, 3000, 5000} // includes an empty fragment
	r := NewReassembler()
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(cuts) - 1) {
		r.Ingest(&Packet{Type: PacketTile, Slot: 4, VideoID: 78, FragIdx: uint16(i),
			FragCount: uint16(len(cuts) - 1), Payload: payload[cuts[i]:cuts[i+1]]}, now)
	}
	if done := r.Flush(); len(done) != 1 || !bytes.Equal(done[0].Payload, payload) {
		t.Errorf("unequal fragments: %d tiles, or not the payload sent", len(done))
	}
}

// Flush takes its slice back at the next Flush; the payloads it handed out
// stay intact, and a buffer reused from a dropped tile never leaks into them.
func TestFlushedPayloadsSurviveReuse(t *testing.T) {
	r := NewReassembler()
	now := time.Unix(0, 0)
	var kept [][]byte
	var want [][]byte
	for slot := uint32(0); slot < 40; slot++ {
		payload := bytes.Repeat([]byte{byte(slot + 1)}, 3000+int(slot)*10)
		frags := Fragment(1, slot, 5, payload, 600, 0)
		if slot%3 == 1 {
			frags[0], frags[2] = frags[2], frags[0] // a reordered tile
		}
		for _, p := range frags {
			r.Ingest(p, now)
		}
		// A second tile of the slot loses a fragment and is dropped.
		for _, p := range Fragment(1, slot, 6, payload, 600, 0)[1:] {
			r.Ingest(p, now)
		}
		for _, tile := range r.Flush() {
			kept = append(kept, tile.Payload)
			want = append(want, payload)
		}
		r.FlushSlot(slot)
	}
	if len(kept) != 40 {
		t.Fatalf("completed %d tiles, want 40", len(kept))
	}
	for i := range kept {
		if !bytes.Equal(kept[i], want[i]) {
			t.Fatalf("payload of slot %d changed after later slots were received", i)
		}
	}
}

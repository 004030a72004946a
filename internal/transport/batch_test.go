package transport

// Tests for the batched send path: staging via QueueTile*, slot-boundary
// Flush, BatchSize auto-flush, partial-batch error behavior, per-packet
// chaos inside a batch, and — the core contract — byte-identical wire
// output versus unbatched sends under identical fault scripts.

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/tiles"
)

// memConn is an in-memory PacketConn recording every datagram, optionally
// failing all writes from the failAfter-th on (failAfter < 0 never fails).
type memConn struct {
	mu        sync.Mutex
	writes    [][]byte
	failAfter int
}

var errInjectedWrite = errors.New("memConn: injected write failure")

func newMemConn() *memConn { return &memConn{failAfter: -1} }

func (c *memConn) WriteTo(b []byte, _ net.Addr) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failAfter >= 0 && len(c.writes) >= c.failAfter {
		return 0, errInjectedWrite
	}
	c.writes = append(c.writes, append([]byte(nil), b...))
	return len(b), nil
}

func (c *memConn) snapshot() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

func (c *memConn) ReadFrom(b []byte) (int, net.Addr, error) {
	return 0, nil, errors.New("memConn: read not supported")
}
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return &net.UDPAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// discardConn accepts and forgets datagrams without allocating: the sink
// for allocation regression tests.
type discardConn struct{ memConn }

func (c *discardConn) WriteTo(b []byte, _ net.Addr) (int, error) { return len(b), nil }

// scriptInjector replays a fixed fault script, one entry per datagram;
// exhausted scripts deliver normally.
type scriptInjector struct {
	faults []PacketFault
	next   int
}

func (s *scriptInjector) PacketFault() PacketFault {
	if s.next >= len(s.faults) {
		return PacketFault{}
	}
	f := s.faults[s.next]
	s.next++
	return f
}

// batchPayloads is a deterministic mixed workload: empty, sub-MTU and
// multi-fragment tiles.
func batchPayloads(rng *rand.Rand) [][]byte {
	sizes := []int{0, 17, 300, 1111, 2500, 64, 4093, 1}
	out := make([][]byte, len(sizes))
	for i, n := range sizes {
		out[i] = make([]byte, n)
		rng.Read(out[i])
	}
	return out
}

// chaosScript builds a fault script covering drop, corrupt, hold and
// duplicate across the workload's packets.
func chaosScript(rng *rand.Rand, n int) []PacketFault {
	faults := make([]PacketFault, n)
	for i := range faults {
		switch rng.Intn(6) {
		case 0:
			faults[i].Drop = true
		case 1:
			faults[i].Duplicate = true
		case 2:
			faults[i].Hold = true
		case 3:
			faults[i].CorruptXOR = byte(1 + rng.Intn(255))
			faults[i].CorruptPos = rng.Intn(4096) - 2048
		}
	}
	return faults
}

// TestBatchedWireIdentical sends the same workload unbatched and batched
// under identical fault scripts and asserts the wire is byte-identical:
// same datagrams, same order, same drop decisions.
func TestBatchedWireIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	payloads := batchPayloads(rng)
	script := chaosScript(rng, 64)

	run := func(batch int) ([][]byte, int) {
		conn := newMemConn()
		s := NewSender(conn, conn.LocalAddr(), nil, 500)
		s.setFaultInjector(&scriptInjector{faults: append([]PacketFault(nil), script...)})
		s.SetBatchSize(batch)
		for i, pl := range payloads {
			var err error
			if batch > 1 {
				err = s.QueueTileTraced(7, uint32(i), tiles.VideoID(i), pl, uint64(1000+i), uint8(i%3))
			} else {
				err = s.sendTileTraced(7, uint32(i), tiles.VideoID(i), pl, uint64(1000+i), uint8(i%3))
			}
			if err != nil {
				t.Fatalf("send tile %d (batch=%d): %v", i, batch, err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("flush (batch=%d): %v", batch, err)
		}
		_, _, dropped := s.Stats()
		return conn.snapshot(), dropped
	}

	plain, droppedPlain := run(0)
	batched, droppedBatched := run(1 << 20) // stage everything, flush once
	if droppedPlain != droppedBatched {
		t.Fatalf("drop counts differ: unbatched %d, batched %d", droppedPlain, droppedBatched)
	}
	if len(plain) != len(batched) {
		t.Fatalf("datagram counts differ: unbatched %d, batched %d", len(plain), len(batched))
	}
	for i := range plain {
		if !bytes.Equal(plain[i], batched[i]) {
			t.Fatalf("datagram %d differs between unbatched and batched send", i)
		}
	}
	if len(plain) == 0 {
		t.Fatal("workload produced no datagrams")
	}
}

// TestFlushOnSlotBoundary: staged tiles stay off the wire until Flush,
// then transmit in queue order with a continuous sequence space.
func TestFlushOnSlotBoundary(t *testing.T) {
	conn := newMemConn()
	s := NewSender(conn, conn.LocalAddr(), nil, DefaultMTU)
	s.SetBatchSize(1 << 20)

	for i := 0; i < 3; i++ {
		if err := s.QueueTile(1, 42, tiles.VideoID(i), []byte{byte(i)}); err != nil {
			t.Fatalf("queue: %v", err)
		}
	}
	if got := len(conn.snapshot()); got != 0 {
		t.Fatalf("%d datagrams on the wire before Flush", got)
	}
	if tilesQ, pkts := s.queued(); tilesQ != 3 || pkts != 3 {
		t.Fatalf("Queued() = (%d, %d), want (3, 3)", tilesQ, pkts)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	writes := conn.snapshot()
	if len(writes) != 3 {
		t.Fatalf("flush wrote %d datagrams, want 3", len(writes))
	}
	for i, w := range writes {
		p, err := Decode(w)
		if err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if p.Seq != uint32(i) || p.VideoID != tiles.VideoID(i) || p.Slot != 42 {
			t.Fatalf("datagram %d out of order: seq %d video %d slot %d", i, p.Seq, p.VideoID, p.Slot)
		}
	}
	if tilesQ, pkts := s.queued(); tilesQ != 0 || pkts != 0 {
		t.Fatalf("batch not cleared after Flush: (%d, %d)", tilesQ, pkts)
	}
}

// TestBatchAutoFlush: staging past BatchSize wire packets flushes inline.
func TestBatchAutoFlush(t *testing.T) {
	conn := newMemConn()
	s := NewSender(conn, conn.LocalAddr(), nil, DefaultMTU)
	s.SetBatchSize(4)

	payload := make([]byte, 2*(DefaultMTU-HeaderSize)) // 2 packets per tile
	if err := s.QueueTile(1, 1, 1, payload); err != nil {
		t.Fatal(err)
	}
	if got := len(conn.snapshot()); got != 0 {
		t.Fatalf("auto-flushed too early: %d datagrams", got)
	}
	if err := s.QueueTile(1, 1, 2, payload); err != nil {
		t.Fatal(err)
	}
	if got := len(conn.snapshot()); got != 4 {
		t.Fatalf("auto-flush at BatchSize wrote %d datagrams, want 4", got)
	}
	if tilesQ, _ := s.queued(); tilesQ != 0 {
		t.Fatalf("%d tiles still queued after auto-flush", tilesQ)
	}
}

// TestBatchDisabledSendsImmediately: BatchSize <= 1 makes QueueTile a
// plain SendTile.
func TestBatchDisabledSendsImmediately(t *testing.T) {
	for _, size := range []int{0, 1, -5} {
		conn := newMemConn()
		s := NewSender(conn, conn.LocalAddr(), nil, DefaultMTU)
		s.SetBatchSize(size)
		if err := s.QueueTile(1, 1, 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if got := len(conn.snapshot()); got != 1 {
			t.Fatalf("BatchSize=%d: QueueTile wrote %d datagrams, want 1", size, got)
		}
	}
}

// TestPartialBatchFlushOnError: a mid-batch write failure keeps the sent
// prefix on the wire, discards the tail, clears the batch and surfaces the
// error; the sender keeps working afterwards.
func TestPartialBatchFlushOnError(t *testing.T) {
	conn := newMemConn()
	conn.failAfter = 2
	s := NewSender(conn, conn.LocalAddr(), nil, DefaultMTU)
	s.SetBatchSize(1 << 20)

	for i := 0; i < 5; i++ {
		if err := s.QueueTile(1, 9, tiles.VideoID(i), []byte{byte(i)}); err != nil {
			t.Fatalf("queue %d: %v", i, err)
		}
	}
	err := s.Flush()
	if !errors.Is(err, errInjectedWrite) {
		t.Fatalf("Flush error = %v, want wrapped %v", err, errInjectedWrite)
	}
	if got := len(conn.snapshot()); got != 2 {
		t.Fatalf("prefix on the wire is %d datagrams, want 2", got)
	}
	if tilesQ, pkts := s.queued(); tilesQ != 0 || pkts != 0 {
		t.Fatalf("failed batch not cleared: (%d, %d)", tilesQ, pkts)
	}

	// The conn recovers; the sender must too, with a fresh batch.
	conn.failAfter = -1
	if err := s.QueueTile(1, 10, 7, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	writes := conn.snapshot()
	last, err := Decode(writes[len(writes)-1])
	if err != nil {
		t.Fatal(err)
	}
	if last.Slot != 10 || string(last.Payload) != "after" {
		t.Fatalf("post-recovery datagram wrong: slot %d payload %q", last.Slot, last.Payload)
	}
}

// TestChaosDropsPerPacketInsideBatch: the injector is consulted for every
// datagram of a flushed batch individually; a mid-batch drop loses exactly
// that packet while its sequence number stays burned.
func TestChaosDropsPerPacketInsideBatch(t *testing.T) {
	conn := newMemConn()
	s := NewSender(conn, conn.LocalAddr(), nil, DefaultMTU)
	s.setFaultInjector(&scriptInjector{faults: []PacketFault{
		{}, {Drop: true}, {}, {},
	}})
	s.SetBatchSize(1 << 20)
	for i := 0; i < 4; i++ {
		if err := s.QueueTile(1, 5, tiles.VideoID(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	writes := conn.snapshot()
	if len(writes) != 3 {
		t.Fatalf("%d datagrams survived, want 3", len(writes))
	}
	var seqs []uint32
	for _, w := range writes {
		p, err := Decode(w)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, p.Seq)
	}
	want := []uint32{0, 2, 3} // seq 1 dropped inside the batch
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("surviving seqs %v, want %v", seqs, want)
		}
	}
	if _, _, dropped := s.Stats(); dropped != 1 {
		t.Fatalf("dropped counter = %d, want 1", dropped)
	}
}

// TestBatchedSendAllocs: the steady-state queue+flush cycle is
// allocation-free once scratch has grown.
func TestBatchedSendAllocs(t *testing.T) {
	conn := &discardConn{}
	s := NewSender(conn, conn.LocalAddr(), nil, DefaultMTU)
	s.SetBatchSize(32)
	payload := make([]byte, 3000)

	cycle := func() {
		for i := 0; i < 4; i++ {
			if err := s.QueueTile(1, 1, tiles.VideoID(i), payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle() // grow encode scratch and batch buffer
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state queue+flush allocates %v/op, want 0", allocs)
	}
}

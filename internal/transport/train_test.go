package transport

// Tests for the train path: pacing runs written as one UDP_SEGMENT datagram
// over a real loopback socket. The tests that need the kernel to take a
// train skip, saying so, where it does not.

import (
	"bytes"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tiles"
)

// loopbackPair returns a sending and a receiving UDP socket on 127.0.0.1.
func loopbackPair(t *testing.T) (tx, rx *net.UDPConn) {
	t.Helper()
	open := func() *net.UDPConn {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	tx, rx = open(), open()
	// Room for the longest run the tests send between two pacing sleeps.
	if err := rx.SetReadBuffer(1 << 20); err != nil {
		t.Fatal(err)
	}
	return tx, rx
}

// sink collects every datagram a socket receives, in arrival order.
type sink struct {
	mu     sync.Mutex
	got    [][]byte
	more   chan struct{} // one pending wake-up is enough: wait re-checks got
	closed chan struct{}
}

// drain starts reading rx into a sink until the test closes the socket.
func drain(t *testing.T, rx *net.UDPConn) *sink {
	k := &sink{more: make(chan struct{}, 1), closed: make(chan struct{})}
	go func() {
		defer close(k.closed)
		buf := make([]byte, 1<<16)
		for {
			n, err := rx.Read(buf)
			if err != nil {
				return
			}
			k.mu.Lock()
			k.got = append(k.got, append([]byte(nil), buf[:n]...))
			k.mu.Unlock()
			select {
			case k.more <- struct{}{}:
			default:
			}
		}
	}()
	t.Cleanup(func() {
		rx.Close()
		<-k.closed
	})
	return k
}

// wait returns the datagrams received once there are n of them, or those
// that made it within two seconds.
func (k *sink) wait(n int) [][]byte {
	deadline := time.After(2 * time.Second)
	for {
		k.mu.Lock()
		got := k.got
		k.mu.Unlock()
		if len(got) >= n {
			return got
		}
		select {
		case <-k.more:
		case <-deadline:
			return got
		}
	}
}

// requireTrains skips the test unless a sender on a loopback socket takes
// trains and the kernel accepts one.
func requireTrains(t *testing.T) {
	t.Helper()
	tx, rx := loopbackPair(t)
	s := NewSender(tx, rx.LocalAddr(), nil, DefaultMTU)
	if s.maxSegs == 1 {
		t.Skip("no UDP_SEGMENT trains on this platform: every datagram is its own write")
	}
	if err := s.SendTile(1, 0, 1, make([]byte, 3*DefaultMTU)); err != nil {
		t.Fatal(err)
	}
	if s.maxSegs == 1 {
		t.Skip("this kernel refused a UDP_SEGMENT write on loopback: the sender fell back to one write per datagram")
	}
}

// pacedShaper asks for a sleep at every every-th admission, never drops, and
// keeps the sizes it was charged. With a sender attached it also checks that
// the admission after a sleep finds no more staged than the one datagram
// admitted since: the train was written before the sleep.
type pacedShaper struct {
	every    int
	admitted []int
	sender   *Sender
	heldOver int // most records found staged right after a sleep
}

func (p *pacedShaper) Admit(n int, _ time.Time) time.Duration {
	p.admitted = append(p.admitted, n)
	if p.sender != nil && len(p.admitted) > 1 && (len(p.admitted)-1)%p.every == 0 {
		p.heldOver = max(p.heldOver, p.sender.segs)
	}
	if len(p.admitted)%p.every == 0 {
		return sleepQuantum
	}
	return 0
}

func (*pacedShaper) Drop() bool { return false }

// trainWorkload is the tile sizes the train tests send at an MTU: empty,
// exactly one chunk, exactly two (a tile whose last fragment is full, so the
// next tile can join its train), one byte over, tiny, ordinary, and two that
// overrun a train — by segments at a small MTU, by bytes at a large one.
func trainWorkload(mtu int) [][]byte {
	chunk := mtu - HeaderSize
	rng := rand.New(rand.NewSource(int64(mtu)))
	sizes := []int{0, chunk, 2 * chunk, chunk + 1, 17, 3000, 70 * chunk, 1, 2 * chunk, 5000, 80000, 64}
	out := make([][]byte, len(sizes))
	for i, n := range sizes {
		out[i] = make([]byte, n)
		rng.Read(out[i])
	}
	return out
}

// sendWorkload sends the first half of the payloads tile by tile and the
// second half staged, flushing every third tile, and runs check after every
// call that promises an empty train.
func sendWorkload(t *testing.T, s *Sender, payloads [][]byte, check func()) {
	t.Helper()
	s.SetBatchSize(1 << 20)
	for i, pl := range payloads {
		var err error
		if i < len(payloads)/2 {
			err = s.sendTileTraced(7, uint32(i), tiles.VideoID(i), pl, uint64(1000+i), uint8(i%3))
			check()
		} else {
			err = s.QueueTileTraced(7, uint32(i), tiles.VideoID(i), pl, uint64(1000+i), uint8(i%3))
			if err == nil && i%3 == 0 {
				err = s.Flush()
				check()
			}
		}
		if err != nil {
			t.Fatalf("tile %d: %v", i, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestTrainWireIdentical sends one workload, under one fault script and one
// pacing script, through the train path and through the portable loop: the
// receiver sees the same datagrams in the same order, the shaper the same
// admissions, and Stats agree.
func TestTrainWireIdentical(t *testing.T) {
	requireTrains(t)
	for _, mtu := range []int{500, DefaultMTU} {
		payloads := trainWorkload(mtu)
		script := chaosScript(rand.New(rand.NewSource(5)), 400)

		type outcome struct {
			wire                 [][]byte
			admitted             []int
			pkts, bytes, dropped int
			faultsUsed           int
		}
		run := func(trains bool) outcome {
			tx, rx := loopbackPair(t)
			got := drain(t, rx)
			var conn net.PacketConn = tx
			if !trains {
				conn = struct{ net.PacketConn }{tx} // not a *net.UDPConn: the portable loop
			}
			shaper := &pacedShaper{every: 23}
			inj := &scriptInjector{faults: append([]PacketFault(nil), script...)}
			s := NewSender(conn, rx.LocalAddr(), shaper, mtu)
			s.setFaultInjector(inj)
			if trains != (s.maxSegs > 1) {
				t.Fatalf("trains = %v, sender's maxSegs = %d", trains, s.maxSegs)
			}
			sendWorkload(t, s, payloads, func() {})
			o := outcome{admitted: shaper.admitted, faultsUsed: inj.next}
			o.pkts, o.bytes, o.dropped = s.Stats()
			if trains && s.maxSegs == 1 {
				t.Fatal("the sender fell back mid-run")
			}
			o.wire = got.wait(o.pkts)
			return o
		}
		portable, train := run(false), run(true)

		if portable.pkts != train.pkts || portable.bytes != train.bytes || portable.dropped != train.dropped {
			t.Errorf("mtu %d: Stats differ: portable (%d, %d, %d), trains (%d, %d, %d)", mtu,
				portable.pkts, portable.bytes, portable.dropped, train.pkts, train.bytes, train.dropped)
		}
		if portable.faultsUsed != train.faultsUsed {
			t.Errorf("mtu %d: injector consulted %d times portable, %d with trains", mtu, portable.faultsUsed, train.faultsUsed)
		}
		if len(portable.admitted) != len(train.admitted) {
			t.Fatalf("mtu %d: %d admissions portable, %d with trains", mtu, len(portable.admitted), len(train.admitted))
		}
		for i := range portable.admitted {
			if portable.admitted[i] != train.admitted[i] {
				t.Fatalf("mtu %d: admission %d charged %d bytes portable, %d with trains", mtu, i, portable.admitted[i], train.admitted[i])
			}
		}
		if len(portable.wire) != portable.pkts || len(train.wire) != train.pkts {
			t.Fatalf("mtu %d: received %d of %d datagrams portable, %d of %d with trains", mtu,
				len(portable.wire), portable.pkts, len(train.wire), train.pkts)
		}
		for i := range portable.wire {
			if !bytes.Equal(portable.wire[i], train.wire[i]) {
				t.Fatalf("mtu %d: datagram %d differs between the portable loop and the train path", mtu, i)
			}
		}
		if portable.pkts < 100 || portable.dropped == 0 {
			t.Fatalf("mtu %d: workload too thin: %d datagrams, %d dropped", mtu, portable.pkts, portable.dropped)
		}
	}
}

// TestTrainBoundsAndNothingLeftStaged: no train passes 64 segments or
// 64 000 bytes, trains do form, every call that sends returns with the train
// empty, and no datagram waits out a pacing sleep in it.
func TestTrainBoundsAndNothingLeftStaged(t *testing.T) {
	requireTrains(t)
	for _, mtu := range []int{500, DefaultMTU} {
		tx, rx := loopbackPair(t)
		shaper := &pacedShaper{every: 97}
		s := NewSender(tx, rx.LocalAddr(), shaper, mtu)
		shaper.sender = s

		write := s.segWrite
		trains, longest, widest := 0, 0, 0
		s.segWrite = func(train []byte, segSize int) error {
			trains++
			longest = max(longest, (len(train)+segSize-1)/segSize)
			widest = max(widest, len(train))
			return write(train, segSize)
		}
		sendWorkload(t, s, trainWorkload(mtu), func() {
			t.Helper()
			if s.segs != 0 || len(s.train) != 0 || s.pendingDrops != 0 {
				t.Fatalf("mtu %d: %d records (%d bytes, %d drops) left staged", mtu, s.segs, len(s.train), s.pendingDrops)
			}
		})
		if longest > trainSegs || widest > trainBytes {
			t.Errorf("mtu %d: a train of %d segments, one of %d bytes; bounds are %d and %d", mtu, longest, widest, trainSegs, trainBytes)
		}
		// The two oversize tiles alone fill a train each: to the segment
		// bound at the small MTU, to the byte bound at the large one.
		if mtu == 500 && longest != trainSegs {
			t.Errorf("mtu %d: longest train %d segments, want the bound %d reached", mtu, longest, trainSegs)
		}
		if mtu == DefaultMTU && widest != trainBytes/mtu*mtu {
			t.Errorf("mtu %d: widest train %d bytes, want %d", mtu, widest, trainBytes/mtu*mtu)
		}
		if pkts, _, _ := s.Stats(); trains == 0 || pkts < 3*trains {
			t.Errorf("mtu %d: %d datagrams in %d segmented writes: trains did not form", mtu, pkts, trains)
		}
		if shaper.heldOver > 1 {
			t.Errorf("mtu %d: %d datagrams were staged across a pacing sleep", mtu, shaper.heldOver)
		}
	}
}

// TestTrainFallback: a socket that refuses its first segmented write gets
// that train again, once and in order, one datagram per write; the sender
// stays on single writes and the fallback counter reads 1. The refusal is
// scripted, so this runs wherever a UDP socket opens.
func TestTrainFallback(t *testing.T) {
	tx, rx := loopbackPair(t)
	got := drain(t, rx)
	s := NewSender(tx, rx.LocalAddr(), nil, 500)
	refused := 0
	s.maxSegs = trainSegs
	s.segWrite = func([]byte, int) error {
		refused++
		return &net.OpError{Op: "write", Net: "udp", Err: syscall.EINVAL}
	}
	reg := obs.NewRegistry()
	pkts, octets := reg.Counter("tx_packets_total"), reg.Counter("tx_bytes_total")
	writes, fallbacks := reg.Counter("tx_writes_total"), reg.Counter("tx_gso_fallback_total")
	s.Instrument(pkts, octets, nil)
	s.InstrumentWrites(writes, fallbacks)

	payload := make([]byte, 10*460)
	rand.New(rand.NewSource(3)).Read(payload)
	for slot := uint32(0); slot < 3; slot++ {
		if err := s.SendTile(2, slot, 9, payload); err != nil {
			t.Fatal(err)
		}
	}
	if refused != 1 || s.maxSegs != 1 || fallbacks.Value() != 1 {
		t.Fatalf("segmented writes tried %d times, maxSegs %d, fallback counter %d; want 1, 1, 1", refused, s.maxSegs, fallbacks.Value())
	}
	wire := got.wait(30)
	if len(wire) != 30 {
		t.Fatalf("received %d datagrams, want 30", len(wire))
	}
	var rebuilt []byte
	for i, w := range wire {
		p, err := Decode(w)
		if err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if p.Seq != uint32(i) || p.Slot != uint32(i/10) || int(p.FragIdx) != i%10 {
			t.Fatalf("datagram %d out of order: seq %d slot %d fragment %d", i, p.Seq, p.Slot, p.FragIdx)
		}
		if rebuilt = append(rebuilt, p.Payload...); i%10 == 9 {
			if !bytes.Equal(rebuilt, payload) {
				t.Fatalf("tile of slot %d is not the payload sent", i/10)
			}
			rebuilt = rebuilt[:0]
		}
	}
	if n, b, _ := s.Stats(); n != 30 || uint64(n) != pkts.Value() || uint64(b) != octets.Value() || writes.Value() != 30 {
		t.Errorf("Stats (%d, %d), counters packets %d bytes %d writes %d; want 30 datagrams in 30 writes", n, b, pkts.Value(), octets.Value(), writes.Value())
	}
}

// TestTrainSendAllocs: a steady-state SendTile on the train path allocates
// nothing.
func TestTrainSendAllocs(t *testing.T) {
	requireTrains(t)
	tx, rx := loopbackPair(t)
	s := NewSender(tx, rx.LocalAddr(), nil, DefaultMTU)
	payload := make([]byte, 8600)
	send := func() {
		if err := s.SendTile(1, 1, 3, payload); err != nil {
			t.Fatal(err)
		}
	}
	send() // the train buffer
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("steady-state SendTile allocates %v/op on the train path, want 0", allocs)
	}
}

// TestTrainSendersShareSocket: sixteen senders, one per destination, write
// trains through one socket at once, as the server's sessions do. Every
// datagram that arrives decodes, belongs to its receiver's user and is in
// sequence. Run under -race.
func TestTrainSendersShareSocket(t *testing.T) {
	const users, tilesEach = 16, 12
	tx, _ := loopbackPair(t)
	reg := obs.NewRegistry()
	pkts, writes := reg.Counter("tx_packets_total"), reg.Counter("tx_writes_total")
	var wg sync.WaitGroup
	sinks := make([]*sink, users)
	senders := make([]*Sender, users)
	for u := range senders {
		_, rx := loopbackPair(t)
		sinks[u] = drain(t, rx)
		senders[u] = NewSender(tx, rx.LocalAddr(), &pacedShaper{every: 40}, DefaultMTU)
		senders[u].Instrument(pkts, nil, nil)
		senders[u].InstrumentWrites(writes, nil)
	}
	payload := make([]byte, 8600)
	for u, s := range senders {
		wg.Add(1)
		go func(u int, s *Sender) {
			defer wg.Done()
			for i := 0; i < tilesEach; i++ {
				if err := s.SendTile(uint32(u), uint32(i), 4, payload); err != nil {
					t.Errorf("user %d tile %d: %v", u, i, err)
					return
				}
			}
		}(u, s)
	}
	wg.Wait()

	perTile := packetCount(len(payload), DefaultMTU)
	for u, s := range senders {
		if n, _, _ := s.Stats(); n != tilesEach*perTile {
			t.Errorf("user %d: sent %d datagrams, want %d", u, n, tilesEach*perTile)
		}
		last := -1
		for i, w := range sinks[u].wait(tilesEach * perTile) {
			p, err := Decode(w)
			if err != nil {
				t.Fatalf("user %d datagram %d: %v", u, i, err)
			}
			if p.User != uint32(u) || int(p.Seq) <= last {
				t.Fatalf("user %d datagram %d: user %d seq %d after %d", u, i, p.User, p.Seq, last)
			}
			last = int(p.Seq)
		}
		if last < 0 {
			t.Errorf("user %d received nothing", u)
		}
	}
	if pkts.Value() != users*tilesEach*uint64(perTile) || writes.Value() == 0 || writes.Value() > pkts.Value() {
		t.Errorf("shared counters: %d datagrams in %d writes", pkts.Value(), writes.Value())
	}
}

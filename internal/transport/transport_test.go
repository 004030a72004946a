package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/tiles"
)

func testVideoID(t *testing.T) tiles.VideoID {
	t.Helper()
	id, err := tiles.PackVideoID(tiles.CellID{X: 7, Z: -3}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestPacketEncodeDecodeRoundTrip(t *testing.T) {
	p := &Packet{
		Type:      PacketTile,
		User:      3,
		Slot:      12345,
		VideoID:   testVideoID(t),
		FragIdx:   2,
		FragCount: 5,
		Seq:       99,
		Payload:   []byte("hello tiles"),
	}
	wire := p.Encode(nil)
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != p.Type || got.User != p.User || got.Slot != p.Slot ||
		got.VideoID != p.VideoID || got.FragIdx != p.FragIdx ||
		got.FragCount != p.FragCount || got.Seq != p.Seq {
		t.Errorf("header mismatch: %+v vs %+v", got, p)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("payload mismatch")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 10)); !errors.Is(err, errShortPacket) {
		t.Errorf("short packet: %v", err)
	}
	bad := (&Packet{Type: PacketTile, Payload: []byte("x")}).Encode(nil)
	bad[0] = 0xFF
	if _, err := Decode(bad); !errors.Is(err, errBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	trunc := (&Packet{Type: PacketTile, Payload: []byte("xyz")}).Encode(nil)
	if _, err := Decode(trunc[:len(trunc)-1]); !errors.Is(err, errBadLength) {
		t.Errorf("bad length: %v", err)
	}
}

func TestFragmentSplitsAndCovers(t *testing.T) {
	payload := make([]byte, 5000)
	rand.New(rand.NewSource(1)).Read(payload)
	id := testVideoID(t)
	packets := Fragment(1, 7, id, payload, DefaultMTU, 100)

	chunk := DefaultMTU - HeaderSize
	wantCount := (len(payload) + chunk - 1) / chunk
	if len(packets) != wantCount {
		t.Fatalf("fragments = %d, want %d", len(packets), wantCount)
	}
	var rebuilt []byte
	for i, p := range packets {
		if p.FragIdx != uint16(i) || int(p.FragCount) != wantCount {
			t.Fatalf("fragment %d mislabeled: %+v", i, p)
		}
		if p.Seq != 100+uint32(i) {
			t.Fatalf("fragment %d seq = %d", i, p.Seq)
		}
		if len(p.Payload)+HeaderSize > DefaultMTU {
			t.Fatalf("fragment %d exceeds MTU", i)
		}
		rebuilt = append(rebuilt, p.Payload...)
	}
	if !bytes.Equal(rebuilt, payload) {
		t.Errorf("fragments do not cover payload")
	}
}

func TestFragmentEmptyPayload(t *testing.T) {
	packets := Fragment(1, 1, testVideoID(t), nil, DefaultMTU, 0)
	if len(packets) != 1 || len(packets[0].Payload) != 0 {
		t.Errorf("empty payload should yield one empty packet, got %d", len(packets))
	}
}

func TestReassemblerRebuildsTile(t *testing.T) {
	payload := make([]byte, 3000)
	rand.New(rand.NewSource(2)).Read(payload)
	id := testVideoID(t)
	packets := Fragment(1, 5, id, payload, 500, 0)

	r := NewReassembler()
	now := time.Unix(0, 0)
	// Deliver out of order.
	for i := len(packets) - 1; i >= 0; i-- {
		r.Ingest(packets[i], now.Add(time.Duration(i)*time.Millisecond))
	}
	done := r.Flush()
	if len(done) != 1 {
		t.Fatalf("completed tiles = %d, want 1", len(done))
	}
	if done[0].VideoID != id || done[0].Slot != 5 {
		t.Errorf("tile metadata wrong: %+v", done[0])
	}
	if !bytes.Equal(done[0].Payload, payload) {
		t.Errorf("reassembled payload differs")
	}

	st, ok := r.FlushSlot(5)
	if !ok {
		t.Fatal("slot stats missing")
	}
	if st.Tiles != 1 || st.Packets != len(packets) {
		t.Errorf("stats = %+v", st)
	}
	wantDelay := time.Duration(len(packets)-1) * time.Millisecond
	if st.Delay() != wantDelay {
		t.Errorf("delay = %v, want %v", st.Delay(), wantDelay)
	}
}

func TestReassemblerDropsIncompleteTiles(t *testing.T) {
	payload := make([]byte, 2000)
	id := testVideoID(t)
	packets := Fragment(1, 3, id, payload, 500, 0)
	r := NewReassembler()
	now := time.Now()
	// Lose the second fragment.
	for i, p := range packets {
		if i == 1 {
			continue
		}
		r.Ingest(p, now)
	}
	if done := r.Flush(); len(done) != 0 {
		t.Fatalf("incomplete tile completed: %d", len(done))
	}
	if r.pendingTiles() != 1 {
		t.Fatalf("pending = %d, want 1", r.pendingTiles())
	}
	// Flushing the slot discards the partial state.
	if _, ok := r.FlushSlot(3); !ok {
		t.Fatal("stats should exist")
	}
	if r.pendingTiles() != 0 {
		t.Errorf("pending after flush = %d", r.pendingTiles())
	}
}

func TestReassemblerIgnoresDuplicates(t *testing.T) {
	payload := make([]byte, 900)
	packets := Fragment(1, 1, testVideoID(t), payload, 500, 0)
	r := NewReassembler()
	now := time.Now()
	r.Ingest(packets[0], now)
	r.Ingest(packets[0], now) // duplicate
	r.Ingest(packets[1], now)
	done := r.Flush()
	if len(done) != 1 {
		t.Fatalf("completed = %d, want 1", len(done))
	}
	if len(done[0].Payload) != len(payload) {
		t.Errorf("payload length = %d, want %d", len(done[0].Payload), len(payload))
	}
}

func TestReassemblerFlushSlotMissing(t *testing.T) {
	r := NewReassembler()
	if _, ok := r.FlushSlot(9); ok {
		t.Error("missing slot should report !ok")
	}
}

func TestControlConnRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type result struct {
		msgs []any
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			resCh <- result{err: err}
			return
		}
		conn := NewConn(raw)
		defer conn.Close()
		var msgs []any
		for i := 0; i < 3; i++ {
			m, err := conn.Recv()
			if err != nil {
				resCh <- result{err: err}
				return
			}
			msgs = append(msgs, m)
		}
		resCh <- result{msgs: msgs}
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(raw)
	defer conn.Close()

	id := testVideoID(t)
	sent := []any{
		Hello{User: 4, UDPAddr: "127.0.0.1:9999", RAMThreshold: 128},
		PoseUpdate{User: 4, Slot: 10},
		TileACK{User: 4, Slot: 10, Tiles: []tiles.VideoID{id}, DelayMs: 3.5, Bytes: 1000, Covered: true, Displayed: true},
	}
	for _, m := range sent {
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}

	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.msgs) != 3 {
		t.Fatalf("received %d messages", len(res.msgs))
	}
	if h, ok := res.msgs[0].(Hello); !ok || h.User != 4 || h.RAMThreshold != 128 {
		t.Errorf("hello = %#v", res.msgs[0])
	}
	if ack, ok := res.msgs[2].(TileACK); !ok || len(ack.Tiles) != 1 || ack.Tiles[0] != id || !ack.Covered {
		t.Errorf("ack = %#v", res.msgs[2])
	}
}

func TestSenderDeliversOverUDP(t *testing.T) {
	recvConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recvConn.Close()
	sendConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sendConn.Close()

	payload := make([]byte, 4000)
	rand.New(rand.NewSource(3)).Read(payload)
	id := testVideoID(t)

	s := NewSender(sendConn, recvConn.LocalAddr(), nil, DefaultMTU)
	if err := s.SendTile(1, 2, id, payload); err != nil {
		t.Fatal(err)
	}

	r := NewReassembler()
	buf := make([]byte, 65536)
	deadline := time.Now().Add(2 * time.Second)
	for len(r.Flush()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for tile")
		}
		recvConn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, _, err := recvConn.ReadFrom(buf)
		if err != nil {
			continue
		}
		p, err := Decode(buf[:n])
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		r.Ingest(p, time.Now())
		if done := r.Flush(); len(done) == 1 {
			if !bytes.Equal(done[0].Payload, payload) {
				t.Fatal("payload corrupted in flight")
			}
			return
		}
	}
}

type fixedDelayShaper struct {
	d     time.Duration
	drops int
}

func (f *fixedDelayShaper) Admit(int, time.Time) time.Duration { return f.d }
func (f *fixedDelayShaper) Drop() bool {
	if f.drops > 0 {
		f.drops--
		return true
	}
	return false
}

func TestSenderShaperDropsAndStats(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	sh := &fixedDelayShaper{drops: 2}
	s := NewSender(conn, conn.LocalAddr(), sh, 500)
	payload := make([]byte, 2000) // 5 fragments at 500-byte MTU
	if err := s.SendTile(1, 1, testVideoID(t), payload); err != nil {
		t.Fatal(err)
	}
	pkts, bytes_, dropped := s.Stats()
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	if pkts == 0 || bytes_ == 0 {
		t.Errorf("no packets sent: %d, %d", pkts, bytes_)
	}
}

func TestChainShaper(t *testing.T) {
	a := &fixedDelayShaper{d: time.Millisecond}
	b := &fixedDelayShaper{d: 3 * time.Millisecond}
	chain := ChainShaper{a, b}
	if d := chain.Admit(100, time.Now()); d != 3*time.Millisecond {
		t.Errorf("chain admit = %v, want 3ms", d)
	}
	c := &fixedDelayShaper{drops: 1}
	chain = ChainShaper{a, c}
	if !chain.Drop() {
		t.Errorf("chain should drop when any stage drops")
	}
	if chain.Drop() {
		t.Errorf("chain should pass when no stage drops")
	}
}

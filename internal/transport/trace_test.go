package transport

import (
	"net"
	"testing"
	"time"

	"repro/internal/tiles"
)

// TestPacketTraceRetryRoundTrip checks that the trace ID and retry count
// survive the wire encoding.
func TestPacketTraceRetryRoundTrip(t *testing.T) {
	p := &Packet{
		Type: PacketTile, User: 7, Slot: 214, VideoID: 42,
		FragIdx: 1, FragCount: 3, Seq: 99,
		Retry: 2, Trace: 0xdeadbeefcafef00d,
		Payload: []byte("tile bytes"),
	}
	got, err := Decode(p.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != p.Trace {
		t.Errorf("trace = %x, want %x", got.Trace, p.Trace)
	}
	if got.Retry != p.Retry {
		t.Errorf("retry = %d, want %d", got.Retry, p.Retry)
	}
	// Untraced packets stay untraced.
	plain, err := Decode((&Packet{Type: PacketTile, FragCount: 1}).Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != 0 || plain.Retry != 0 {
		t.Errorf("untraced packet decoded trace=%x retry=%d", plain.Trace, plain.Retry)
	}
}

// TestSenderTracePropagation sends a traced tile over a loopback UDP socket
// and checks the reassembler surfaces the trace ID and retry count in the
// slot stats — the client half of the stitching contract.
func TestSenderTracePropagation(t *testing.T) {
	rx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	s := NewSender(tx, rx.LocalAddr(), nil, DefaultMTU)
	const traceID = uint64(0x1234_5678_9abc_def0)
	payload := make([]byte, 3000) // several fragments
	if err := s.sendTileTraced(3, 11, tiles.VideoID(5), payload, traceID, 1); err != nil {
		t.Fatal(err)
	}

	r := NewReassembler()
	buf := make([]byte, DefaultMTU)
	deadline := time.Now().Add(2 * time.Second)
	for {
		rx.SetReadDeadline(deadline)
		n, _, err := rx.ReadFrom(buf)
		if err != nil {
			t.Fatalf("read: %v (tiles so far: %d)", err, len(r.Flush()))
		}
		p, err := Decode(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		if p.Trace != traceID || p.Retry != 1 {
			t.Fatalf("fragment %d carries trace=%x retry=%d", p.FragIdx, p.Trace, p.Retry)
		}
		r.Ingest(p, time.Now())
		if tiles := r.Flush(); len(tiles) == 1 {
			break
		}
	}
	st, ok := r.FlushSlot(11)
	if !ok {
		t.Fatal("no slot stats")
	}
	if st.Trace != traceID {
		t.Errorf("slot stats trace = %x, want %x", st.Trace, traceID)
	}
	if st.MaxRetry != 1 {
		t.Errorf("slot stats max retry = %d, want 1", st.MaxRetry)
	}
}

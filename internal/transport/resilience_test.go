package transport

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"
)

func TestPacketChecksumDetectsCorruption(t *testing.T) {
	p := &Packet{
		Type: PacketTile, User: 3, Slot: 7, VideoID: testVideoID(t),
		FragIdx: 1, FragCount: 4, Seq: 99, Retry: 2, Trace: 0xDEADBEEF,
		Payload: []byte("tile payload bytes"),
	}
	wire := p.Encode(nil)
	if _, err := Decode(wire); err != nil {
		t.Fatalf("clean packet failed to decode: %v", err)
	}
	// Flip one bit anywhere outside the checksum field itself: Decode must
	// reject the datagram rather than hand corrupt state to reassembly.
	for _, pos := range []int{0, 5, 13, 27, 35, HeaderSize + 3} {
		c := append([]byte(nil), wire...)
		c[pos] ^= 0x10
		_, err := Decode(c)
		if err == nil {
			t.Fatalf("corruption at byte %d went undetected", pos)
		}
	}
	// Corrupting the checksum bytes themselves must also be caught.
	c := append([]byte(nil), wire...)
	c[30] ^= 0xFF
	if _, err := Decode(c); !errors.Is(err, errBadChecksum) {
		t.Fatalf("checksum-field corruption: got %v, want ErrBadChecksum", err)
	}
}

func TestRetryPolicyBackoffAndAbandonment(t *testing.T) {
	slot := 20 * time.Millisecond
	p := DefaultRetryPolicy(slot)
	if !p.Enabled() {
		t.Fatal("default policy should be enabled")
	}
	rng := rand.New(rand.NewSource(1))
	for attempt := 0; attempt < 10; attempt++ {
		ceil := p.Base << attempt
		if ceil > p.Cap || ceil <= 0 {
			ceil = p.Cap
		}
		for i := 0; i < 50; i++ {
			d := p.Backoff(attempt, rng)
			if d < 0 || d >= ceil {
				t.Fatalf("attempt %d: backoff %v outside [0, %v)", attempt, d, ceil)
			}
		}
	}
	if p.Abandon(0, 0) {
		t.Error("fresh tile abandoned immediately")
	}
	if !p.Abandon(p.MaxAttempts, 0) {
		t.Error("attempt budget exhausted but not abandoned")
	}
	if !p.Abandon(0, p.Budget+time.Millisecond) {
		t.Error("wall-clock budget exhausted but not abandoned")
	}
	var off RetryPolicy
	if off.Enabled() || off.Abandon(100, time.Hour) {
		t.Error("zero policy must be disabled and never abandon")
	}
}

// scriptedFaults replays a fixed fault sequence, then clean packets.
type scriptedFaults struct {
	seq []PacketFault
	i   int
}

func (s *scriptedFaults) PacketFault() PacketFault {
	if s.i >= len(s.seq) {
		return PacketFault{}
	}
	f := s.seq[s.i]
	s.i++
	return f
}

func (s *scriptedFaults) Admit(int, time.Time) time.Duration { return 0 }
func (s *scriptedFaults) Drop() bool                         { return false }

func TestSenderAppliesPacketFaults(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	// 5 fragments at MTU 140 (100-byte chunks): drop #0, duplicate #1,
	// corrupt #2, hold #3 behind #4.
	faults := &scriptedFaults{seq: []PacketFault{
		{Drop: true},
		{Duplicate: true},
		{CorruptXOR: 0x40, CorruptPos: 11},
		{Hold: true},
		{},
	}}
	s := NewSender(conn, sink.LocalAddr(), faults, 140)
	payload := make([]byte, 500)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := s.SendTile(1, 0, testVideoID(t), payload); err != nil {
		t.Fatal(err)
	}

	// Expect 5 datagrams on the wire: 1+1dup, 1corrupt, then #4 before #3.
	sink.SetReadDeadline(time.Now().Add(2 * time.Second))
	var got []*Packet
	var malformed int
	buf := make([]byte, 2048)
	for len(got)+malformed < 5 {
		n, _, err := sink.ReadFrom(buf)
		if err != nil {
			t.Fatalf("after %d packets (%d malformed): %v", len(got), malformed, err)
		}
		p, err := Decode(buf[:n])
		if err != nil {
			malformed++
			continue
		}
		got = append(got, p)
	}
	if malformed != 1 {
		t.Errorf("malformed datagrams = %d, want 1 (the corrupted fragment)", malformed)
	}
	var idxs []uint16
	for _, p := range got {
		idxs = append(idxs, p.FragIdx)
	}
	want := []uint16{1, 1, 4, 3} // dup of 1, then 4 overtakes held 3
	if len(idxs) != len(want) {
		t.Fatalf("decoded fragments %v, want %v", idxs, want)
	}
	for i := range want {
		if idxs[i] != want[i] {
			t.Fatalf("wire order %v, want %v", idxs, want)
		}
	}
	sent, _, dropped := s.Stats()
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if sent != 5 {
		t.Errorf("sent = %d, want 5 (4 fragments survive + 1 duplicate)", sent)
	}
}

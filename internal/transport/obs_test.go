package transport

import (
	"net"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/obs"
)

// lossyShaper adapts a netem loss model to the Shaper interface (the same
// adaptation the testbed uses for its Linux-TC stand-in).
type lossyShaper struct{ l *netem.LossModel }

func (s lossyShaper) Admit(int, time.Time) time.Duration { return 0 }
func (s lossyShaper) Drop() bool                         { return s.l.Drop() }

func TestSenderCountersUnderInjectedLoss(t *testing.T) {
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

	reg := obs.NewRegistry()
	pkts := reg.Counter("tx_packets_total")
	bytes_ := reg.Counter("tx_bytes_total")
	dropped := reg.Counter("tx_dropped_total")

	s := NewSender(conn, sink.LocalAddr(), lossyShaper{netem.NewLossModel(0.5, 42)}, 400)
	s.Instrument(pkts, bytes_, dropped)

	id := testVideoID(t)
	payload := make([]byte, 8000) // ~25 fragments at MTU 400
	for slot := 0; slot < 8; slot++ {
		if err := s.SendTile(9, uint32(slot), id, payload); err != nil {
			t.Fatal(err)
		}
	}

	gotPkts, gotBytes, gotDropped := s.Stats()
	if gotPkts == 0 || gotDropped == 0 {
		t.Fatalf("loss injection ineffective: sent=%d dropped=%d", gotPkts, gotDropped)
	}
	// The registry counters must agree exactly with the Stats() ledger.
	if pkts.Value() != uint64(gotPkts) {
		t.Errorf("packet counter = %d, Stats = %d", pkts.Value(), gotPkts)
	}
	if bytes_.Value() != uint64(gotBytes) {
		t.Errorf("byte counter = %d, Stats = %d", bytes_.Value(), gotBytes)
	}
	if dropped.Value() != uint64(gotDropped) {
		t.Errorf("dropped counter = %d, Stats = %d", dropped.Value(), gotDropped)
	}
}

func TestReassemblerCountersForDuplicatesAndDrops(t *testing.T) {
	reg := obs.NewRegistry()
	dups := reg.Counter("rx_duplicate_fragments_total")
	drops := reg.Counter("rx_incomplete_tiles_dropped_total")

	r := NewReassembler()
	r.Instrument(dups, drops)

	id := testVideoID(t)
	payload := make([]byte, 3000)
	packets := Fragment(1, 0, id, payload, 1200, 0)
	if len(packets) < 3 {
		t.Fatalf("want >= 3 fragments, got %d", len(packets))
	}
	now := time.Now()

	// Deliver the first fragment twice: the second ingest is a duplicate.
	r.Ingest(packets[0], now)
	r.Ingest(packets[0], now)
	if dups.Value() != 1 {
		t.Errorf("duplicate counter = %d, want 1", dups.Value())
	}

	// Never deliver the final fragment: flushing the slot drops the
	// incomplete tile (the client's display-or-drop rule).
	r.Ingest(packets[1], now)
	if _, ok := r.FlushSlot(0); !ok {
		t.Fatal("slot saw packets but FlushSlot reported none")
	}
	if drops.Value() != 1 {
		t.Errorf("incomplete-drop counter = %d, want 1", drops.Value())
	}
	if r.pendingTiles() != 0 {
		t.Errorf("pending tiles after flush = %d", r.pendingTiles())
	}
}

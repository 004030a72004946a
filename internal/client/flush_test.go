package client

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/tiles"
	"repro/internal/transport"
)

// writeLog keeps each Write on a control connection apart.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (w *writeLog) Write(b []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, append([]byte(nil), b...))
	w.mu.Unlock()
	return w.Conn.Write(b)
}

// framesOf decodes the control messages in one write's bytes.
func framesOf(t *testing.T, b []byte) []any {
	t.Helper()
	in, out := net.Pipe()
	go func() {
		in.Write(b)
		in.Close()
	}()
	conn := transport.NewConn(out)
	defer conn.Close()
	var msgs []any
	for {
		m, err := conn.Recv()
		if err != nil {
			return msgs
		}
		msgs = append(msgs, m)
	}
}

// The client's control traffic is one write per tick: the pose first, then
// what the slots displayed in that tick report, NACK before Release before
// ACK — the order the separate writes had.
func TestClientWritesControlOncePerTick(t *testing.T) {
	fs := newFakeServer(t)
	fs.serve(func(ctrl *transport.Conn, dst net.Addr) {
		id, _ := tiles.PackVideoID(tiles.CellID{X: 20, Z: 20}, 0, 2)
		for slot := uint32(0); slot < 12; slot++ {
			fs.sendTile(dst, 9, slot, id, 500)
			time.Sleep(4 * time.Millisecond)
		}
		time.Sleep(30 * time.Millisecond)
	})
	raw, err := net.Dial("tcp", fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	log := &writeLog{Conn: raw}
	cfg := clientCfg(9, fs.ln.Addr().String(), 8)
	cfg.RAMThreshold = 2 // evictions, so Release frames ride along
	if _, err := runOn(cfg, log, udp, time.Now()); err != nil {
		t.Fatal(err)
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.writes) < 2 {
		t.Fatalf("%d control writes, want the Hello and a run of ticks", len(log.writes))
	}
	if hello := framesOf(t, log.writes[0]); len(hello) != 1 {
		t.Fatalf("first write holds %d frames, want the Hello alone", len(hello))
	} else if _, ok := hello[0].(transport.Hello); !ok {
		t.Fatalf("first write is %T, want Hello", hello[0])
	}
	rank := func(m any) int {
		switch m.(type) {
		case transport.Nack:
			return 1
		case transport.Release:
			return 2
		case transport.TileACK:
			return 3
		}
		return 0
	}
	withACK := 0
	nextPose := uint32(0)
	for i, w := range log.writes[1:] {
		msgs := framesOf(t, w)
		pose, ok := msgs[0].(transport.PoseUpdate)
		if !ok || pose.Slot != nextPose {
			t.Fatalf("write %d starts with %#v, want the pose of tick %d", i+1, msgs[0], nextPose)
		}
		nextPose++
		last := 0
		for _, m := range msgs[1:] {
			r := rank(m)
			if r == 0 {
				t.Fatalf("write %d carries a second %T", i+1, m)
			}
			if r < last && last != 3 { // a new slot may start only after an ACK
				t.Fatalf("write %d: %T after a later-stage frame of the same slot", i+1, m)
			}
			last = r
		}
		if len(msgs) > 1 {
			if last != 3 {
				t.Fatalf("write %d ends with %T, want the slot's TileACK", i+1, msgs[len(msgs)-1])
			}
			withACK++
		}
	}
	if withACK == 0 {
		t.Fatal("no write carried a pose and a TileACK together")
	}
}

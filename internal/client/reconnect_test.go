package client

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tiles"
	"repro/internal/transport"
	"repro/internal/vrmath"
)

// resumableServer is a fake server that survives control-connection churn:
// it accepts any number of connections, answers each Hello with a Welcome
// (the session-resume handshake), and streams tiles to the client's UDP
// address independently of which control connection is live.
type resumableServer struct {
	t       *testing.T
	ln      net.Listener
	udp     net.PacketConn
	accepts atomic.Int32
	poses   atomic.Int32
	dst     atomic.Value // net.Addr from the first Hello
}

func newResumableServer(t *testing.T) *resumableServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	udp, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &resumableServer{t: t, ln: ln, udp: udp}
	t.Cleanup(func() {
		ln.Close()
		udp.Close()
	})
	return rs
}

// waitDst blocks until a Hello has revealed the client's UDP address, or
// stop closes.
func (rs *resumableServer) waitDst(stop <-chan struct{}) net.Addr {
	for {
		if a, ok := rs.dst.Load().(net.Addr); ok {
			return a
		}
		select {
		case <-stop:
			return nil
		case <-time.After(time.Millisecond):
		}
	}
}

// serve accepts connections until the listener closes. dropAfterPoses > 0
// closes the FIRST connection server-side after that many poses, simulating
// a mid-run control-channel drop; killServer additionally closes the
// listener first, so every redial is refused (a server that died for good).
func (rs *resumableServer) serve(dropAfterPoses int32, killServer bool) {
	go func() {
		for {
			raw, err := rs.ln.Accept()
			if err != nil {
				return
			}
			n := rs.accepts.Add(1)
			go func(raw net.Conn, first bool) {
				ctrl := transport.NewConn(raw)
				defer ctrl.Close()
				msg, err := ctrl.Recv()
				if err != nil {
					return
				}
				hello, ok := msg.(transport.Hello)
				if !ok {
					return
				}
				if addr, err := net.ResolveUDPAddr("udp", hello.UDPAddr); err == nil {
					rs.dst.Store(net.Addr(addr))
				}
				if err := ctrl.Send(transport.Welcome{User: hello.User}); err != nil {
					return
				}
				for {
					m, err := ctrl.Recv()
					if err != nil {
						return
					}
					if _, ok := m.(transport.PoseUpdate); ok {
						p := rs.poses.Add(1)
						if first && dropAfterPoses > 0 && p >= dropAfterPoses {
							if killServer {
								rs.ln.Close()
							}
							return // deferred Close drops the connection
						}
					}
				}
			}(raw, n == 1)
		}
	}()
}

// stream pushes the client's needed tiles over UDP, one slot per tick,
// until stop closes.
func (rs *resumableServer) stream(user uint32, stop <-chan struct{}) {
	go func() {
		dst := rs.waitDst(stop)
		if dst == nil {
			return
		}
		cell := tiles.CellFor(vrmath.Vec3{X: 1, Z: 1})
		needed := tiles.ForViewAppend(nil, vrmath.Pose{Pos: vrmath.Vec3{X: 1, Z: 1}, Yaw: 20},
			vrmath.DefaultFoV, 0)
		s := transport.NewSender(rs.udp, dst, nil, transport.DefaultMTU)
		payload := make([]byte, 1500)
		for slot := uint32(0); ; slot++ {
			select {
			case <-stop:
				return
			case <-time.After(4 * time.Millisecond):
			}
			for _, tile := range needed {
				if id, err := tiles.PackVideoID(cell, tile, 3); err == nil {
					_ = s.SendTile(user, slot, id, payload)
				}
			}
		}
	}()
}

// TestClientReconnectResumesSession: the control connection drops mid-run;
// with Config.Reconnect the client redials with backoff, revalidates the
// session via the Welcome, and finishes its display horizon instead of
// dying — the commodity-mobile-device contract under flaky networks.
func TestClientReconnectResumesSession(t *testing.T) {
	base := obs.LeakSnapshot()
	rs := newResumableServer(t)
	rs.serve(5, false) // drop connection #1 after 5 poses
	stop := make(chan struct{})
	rs.stream(11, stop)

	reg := obs.NewRegistry()
	cfg := clientCfg(11, rs.ln.Addr().String(), 40)
	cfg.Metrics = reg
	cfg.Reconnect = true
	cfg.ReconnectAttempts = 6
	cfg.ReconnectBase = 2 * time.Millisecond
	cfg.ReconnectCap = 20 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots == 0 {
		t.Fatal("no slots displayed across the reconnect")
	}
	if res.Reconnects < 1 {
		t.Errorf("Reconnects = %d, want >= 1 (connection was dropped mid-run)", res.Reconnects)
	}
	if got := rs.accepts.Load(); got < 2 {
		t.Errorf("server accepts = %d, want >= 2", got)
	}
	if got := reg.Counter("collabvr_client_reconnects_total").Value(); got < 1 {
		t.Errorf("collabvr_client_reconnects_total = %d, want >= 1", got)
	}
	// Poses must keep flowing on the resumed connection.
	if got := rs.poses.Load(); got < 8 {
		t.Errorf("poses received = %d, want more than the pre-drop 5", got)
	}
	// Tear down the fake server's goroutines before the leak check.
	close(stop)
	rs.ln.Close()
	obs.AssertNoLeaks(t, base)
}

// TestClientReconnectGivesUpWhenServerGone: with the server permanently
// down, the redial budget runs out and Run returns instead of spinning.
func TestClientReconnectGivesUpWhenServerGone(t *testing.T) {
	base := obs.LeakSnapshot()
	rs := newResumableServer(t)
	// After 3 poses the server closes its listener AND the connection:
	// every redial is refused.
	rs.serve(3, true)
	stop := make(chan struct{})
	rs.stream(12, stop)

	cfg := clientCfg(12, rs.ln.Addr().String(), 10_000) // horizon unreachable
	cfg.Reconnect = true
	cfg.ReconnectAttempts = 3
	cfg.ReconnectBase = time.Millisecond
	cfg.ReconnectCap = 5 * time.Millisecond
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		res, err = Run(cfg)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("client did not give up after exhausting its redial budget")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconnects != 0 {
		t.Errorf("Reconnects = %d, want 0 (every redial failed)", res.Reconnects)
	}
	close(stop)
	obs.AssertNoLeaks(t, base)
}

// TestClientCountsMalformedDatagrams: garbage on the media port is dropped
// and counted; it never reaches the reassembler or crashes the receive pump.
func TestClientCountsMalformedDatagrams(t *testing.T) {
	rs := newResumableServer(t)
	rs.serve(0, false)
	stop := make(chan struct{})
	defer close(stop)
	rs.stream(13, stop)

	// Blast garbage at the client's UDP port as soon as it is known.
	garbageStop := make(chan struct{})
	defer close(garbageStop)
	go func() {
		dst := rs.waitDst(garbageStop)
		if dst == nil {
			return
		}
		junk, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return
		}
		defer junk.Close()
		for {
			select {
			case <-garbageStop:
				return
			case <-time.After(3 * time.Millisecond):
			}
			_, _ = junk.WriteTo([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}, dst)
		}
	}()

	reg := obs.NewRegistry()
	cfg := clientCfg(13, rs.ln.Addr().String(), 30)
	cfg.Metrics = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots == 0 {
		t.Fatal("no slots displayed")
	}
	if got := reg.Counter("collabvr_client_rx_malformed_total").Value(); got < 1 {
		t.Errorf("collabvr_client_rx_malformed_total = %d, want >= 1", got)
	}
}

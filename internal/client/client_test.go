package client

import (
	"net"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/tiles"
	"repro/internal/transport"
	"repro/internal/vrmath"
)

// fakeServer implements just enough of the server protocol to exercise the
// client: it accepts the Hello, sends scripted tiles toward the client's
// UDP address, and records the control messages it receives.
type fakeServer struct {
	t    *testing.T
	ln   net.Listener
	udp  net.PacketConn
	msgs chan any
}

func newFakeServer(t *testing.T) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	udp, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{t: t, ln: ln, udp: udp, msgs: make(chan any, 1024)}
	t.Cleanup(func() {
		ln.Close()
		udp.Close()
	})
	return fs
}

// serve accepts one client; script runs with the established control conn
// and the client's UDP address, then the control conn closes (ending the
// client).
func (fs *fakeServer) serve(script func(ctrl *transport.Conn, clientUDP net.Addr)) {
	go func() {
		raw, err := fs.ln.Accept()
		if err != nil {
			return
		}
		ctrl := transport.NewConn(raw)
		msg, err := ctrl.Recv()
		if err != nil {
			ctrl.Close()
			return
		}
		hello, ok := msg.(transport.Hello)
		if !ok {
			ctrl.Close()
			return
		}
		udpAddr, err := net.ResolveUDPAddr("udp", hello.UDPAddr)
		if err != nil {
			ctrl.Close()
			return
		}
		// Pump further control messages into the channel.
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				m, err := ctrl.Recv()
				if err != nil {
					return
				}
				select {
				case fs.msgs <- m:
				default:
				}
			}
		}()
		script(ctrl, udpAddr)
		ctrl.Close()
		<-done
	}()
}

// sendTile transmits one complete tile to the client. Send errors are
// ignored: the client may legitimately finish (closing its socket) while
// the script is still streaming.
func (fs *fakeServer) sendTile(dst net.Addr, user, slot uint32, id tiles.VideoID, size int) {
	s := transport.NewSender(fs.udp, dst, nil, transport.DefaultMTU)
	payload := make([]byte, size)
	_ = s.SendTile(user, slot, id, payload)
}

func testTrace(slots int) motion.Trace {
	tr := make(motion.Trace, slots)
	for i := range tr {
		tr[i] = vrmath.Pose{Pos: vrmath.Vec3{X: 1, Z: 1}, Yaw: 20}
	}
	return tr
}

func clientCfg(user uint32, addr string, slots int) Config {
	cfg := DefaultConfig(user, addr, testTrace(slots+16))
	cfg.SlotDuration = 4 * time.Millisecond
	cfg.Slots = slots
	cfg.Params = metrics.QoEParams{Alpha: 0.1, Beta: 0.5}
	return cfg
}

func TestClientRejectsEmptyTrace(t *testing.T) {
	if _, err := Run(Config{ServerAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("empty trace should error")
	}
}

func TestClientDisplaysDeliveredTiles(t *testing.T) {
	fs := newFakeServer(t)
	// The client stands at (1,1) looking yaw=20: its FoV needs specific
	// tiles for its actual cell.
	cell := tiles.CellFor(vrmath.Vec3{X: 1, Z: 1})
	needed := tiles.ForViewAppend(nil, vrmath.Pose{Pos: vrmath.Vec3{X: 1, Z: 1}, Yaw: 20}, vrmath.DefaultFoV, 0)

	fs.serve(func(ctrl *transport.Conn, dst net.Addr) {
		// Send the needed tiles at level 4 for a run of slots.
		for slot := uint32(0); slot < 30; slot++ {
			for _, tile := range needed {
				id, err := tiles.PackVideoID(cell, tile, 4)
				if err != nil {
					return
				}
				fs.sendTile(dst, 3, slot, id, 2000)
			}
			time.Sleep(4 * time.Millisecond)
		}
		time.Sleep(30 * time.Millisecond)
	})

	res, err := Run(clientCfg(3, fs.ln.Addr().String(), 20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots == 0 {
		t.Fatal("no slots displayed")
	}
	if res.Report.Coverage < 0.8 {
		t.Errorf("coverage = %v, want >= 0.8 (needed tiles were delivered)", res.Report.Coverage)
	}
	if res.Report.Quality < 3 {
		t.Errorf("quality = %v, want about 4", res.Report.Quality)
	}
	if res.Tiles == 0 {
		t.Errorf("no tiles recorded")
	}
}

func TestClientUploadsPosesAndACKs(t *testing.T) {
	fs := newFakeServer(t)
	fs.serve(func(ctrl *transport.Conn, dst net.Addr) {
		id, _ := tiles.PackVideoID(tiles.CellID{X: 20, Z: 20}, 0, 2)
		for slot := uint32(0); slot < 10; slot++ {
			fs.sendTile(dst, 9, slot, id, 500)
			time.Sleep(4 * time.Millisecond)
		}
		time.Sleep(30 * time.Millisecond)
	})

	_, err := Run(clientCfg(9, fs.ln.Addr().String(), 8))
	if err != nil {
		t.Fatal(err)
	}
	var poses, acks int
	for {
		select {
		case m := <-fs.msgs:
			switch m.(type) {
			case transport.PoseUpdate:
				poses++
			case transport.TileACK:
				acks++
			}
			continue
		default:
		}
		break
	}
	if poses == 0 {
		t.Errorf("client never uploaded a pose")
	}
	if acks == 0 {
		t.Errorf("client never ACKed")
	}
}

func TestClientReleasesTilesBeyondRAMThreshold(t *testing.T) {
	fs := newFakeServer(t)
	fs.serve(func(ctrl *transport.Conn, dst net.Addr) {
		// Send many distinct tiles to overflow a tiny RAM.
		for slot := uint32(0); slot < 20; slot++ {
			id, err := tiles.PackVideoID(tiles.CellID{X: int32(slot), Z: 0}, tiles.TileID(slot%4), 1)
			if err != nil {
				return
			}
			fs.sendTile(dst, 5, slot, id, 400)
			time.Sleep(4 * time.Millisecond)
		}
		time.Sleep(30 * time.Millisecond)
	})

	cfg := clientCfg(5, fs.ln.Addr().String(), 16)
	cfg.RAMThreshold = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Releases == 0 {
		t.Errorf("RAM threshold 4 with ~20 tiles should have released some")
	}
	var releaseMsgs int
	for {
		select {
		case m := <-fs.msgs:
			if _, ok := m.(transport.Release); ok {
				releaseMsgs++
			}
			continue
		default:
		}
		break
	}
	if releaseMsgs == 0 {
		t.Errorf("release notices never reached the server")
	}
}

func TestClientNacksLostFragments(t *testing.T) {
	fs := newFakeServer(t)
	fs.serve(func(ctrl *transport.Conn, dst net.Addr) {
		// Send a multi-fragment tile with one fragment dropped, repeatedly,
		// then advance the slot so the client flushes and notices the loss.
		id, err := tiles.PackVideoID(tiles.CellID{X: 20, Z: 20}, 0, 2)
		if err != nil {
			return
		}
		payload := make([]byte, 3000)
		for slot := uint32(0); slot < 12; slot++ {
			packets := transport.Fragment(6, slot, id, payload, 600, 0)
			buf := make([]byte, 600)
			for i, p := range packets {
				if i == 1 {
					continue // lose the second fragment
				}
				wire := p.Encode(buf)
				if _, err := fs.udp.WriteTo(wire, dst); err != nil {
					return
				}
			}
			time.Sleep(4 * time.Millisecond)
		}
		time.Sleep(30 * time.Millisecond)
	})

	cfg := clientCfg(6, fs.ln.Addr().String(), 10)
	cfg.NackLost = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nacks == 0 {
		t.Errorf("client never NACKed despite consistent fragment loss")
	}
	var nackMsgs int
	for {
		select {
		case m := <-fs.msgs:
			if _, ok := m.(transport.Nack); ok {
				nackMsgs++
			}
			continue
		default:
		}
		break
	}
	if nackMsgs == 0 {
		t.Errorf("NACK messages never reached the server")
	}
}

func TestClientStopsWhenServerCloses(t *testing.T) {
	fs := newFakeServer(t)
	fs.serve(func(ctrl *transport.Conn, dst net.Addr) {
		// Close immediately after the handshake.
	})
	cfg := clientCfg(2, fs.ln.Addr().String(), 0) // no slot bound
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("client error: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("client did not stop after server closed")
	}
}

func TestCoverageUsesRAMFallback(t *testing.T) {
	cfg := DefaultConfig(1, "x", testTrace(4))
	r := &runner{
		cfg: cfg,
		ram: tiles.NewClientRAM(16),
		acc: metrics.NewUserQoE(cfg.Params),
	}
	pose := vrmath.Pose{Pos: vrmath.Vec3{X: 1, Z: 1}, Yaw: 20}
	cell := tiles.CellFor(pose.Pos)
	needed := tiles.ForViewAppend(nil, pose, vrmath.DefaultFoV, 0)

	// Nothing held: not covered.
	if _, covered := r.coverage(pose, nil); covered {
		t.Fatal("empty state should not be covered")
	}
	// Hold all needed tiles in RAM at level 3: covered at level 3.
	for _, tile := range needed {
		id, err := tiles.PackVideoID(cell, tile, 3)
		if err != nil {
			t.Fatal(err)
		}
		r.ram.Add(id)
	}
	level, covered := r.coverage(pose, nil)
	if !covered || level != 3 {
		t.Errorf("RAM coverage = (%d, %v), want (3, true)", level, covered)
	}
	// A fresh higher-level delivery wins for its tile but the frame level
	// is the minimum across needed tiles.
	id, err := tiles.PackVideoID(cell, needed[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	level, covered = r.coverage(pose, []tiles.VideoID{id})
	if !covered || level != 3 {
		t.Errorf("mixed coverage = (%d, %v), want (3, true)", level, covered)
	}
}

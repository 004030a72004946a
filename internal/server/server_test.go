package server

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tiles"
	"repro/internal/transport"
	"repro/internal/vrmath"
)

// fakeClient speaks the control protocol by hand, so server behaviour can
// be tested without the full client stack.
type fakeClient struct {
	t    *testing.T
	udp  net.PacketConn
	ctrl *transport.Conn
}

func dialFake(t *testing.T, srv *Server, user uint32) *fakeClient {
	t.Helper()
	udp, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", srv.ControlAddr())
	if err != nil {
		udp.Close()
		t.Fatal(err)
	}
	ctrl := transport.NewConn(raw)
	if err := ctrl.Send(transport.Hello{
		User:         user,
		UDPAddr:      udp.LocalAddr().String(),
		RAMThreshold: 64,
	}); err != nil {
		t.Fatal(err)
	}
	return &fakeClient{t: t, udp: udp, ctrl: ctrl}
}

func (f *fakeClient) close() {
	f.ctrl.Close()
	f.udp.Close()
}

// drainPackets reads datagrams until the deadline and returns the decoded
// packets.
func (f *fakeClient) drainPackets(d time.Duration) []*transport.Packet {
	var out []*transport.Packet
	buf := make([]byte, 65536)
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		f.udp.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, _, err := f.udp.ReadFrom(buf)
		if err != nil {
			continue
		}
		p, err := transport.Decode(append([]byte(nil), buf[:n]...))
		if err == nil {
			out = append(out, p)
		}
	}
	return out
}

func newTestServer(t *testing.T, totalSlots int) *Server {
	t.Helper()
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 5 * time.Millisecond
	cfg.TotalSlots = totalSlots
	cfg.BudgetMbps = 300
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestServerRequiresAllocator(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil allocator should be rejected")
	}
}

func TestServerStreamsTilesAfterPose(t *testing.T) {
	srv := newTestServer(t, 0)
	fc := dialFake(t, srv, 7)
	defer fc.close()

	pose := vrmath.Pose{Pos: vrmath.Vec3{X: 1, Z: 1}, Yaw: 30}
	if err := fc.ctrl.Send(transport.PoseUpdate{User: 7, Slot: 0, Pose: pose}); err != nil {
		t.Fatal(err)
	}
	packets := fc.drainPackets(300 * time.Millisecond)
	if len(packets) == 0 {
		t.Fatal("no tiles delivered after pose upload")
	}
	// Tiles must be addressed to the user and carry the cell of the pose
	// (prediction cold-starts from the observed pose).
	wantCell := tiles.CellFor(pose.Pos)
	for _, p := range packets {
		if p.User != 7 {
			t.Fatalf("packet addressed to user %d", p.User)
		}
		cell, _, level := p.VideoID.Unpack()
		if level < 1 || level > tiles.Levels {
			t.Fatalf("bad level %d", level)
		}
		if cell != wantCell {
			// Prediction may wander a cell over time; just require the
			// first packets to match.
			break
		}
	}
}

func TestServerIgnoresJunkHello(t *testing.T) {
	srv := newTestServer(t, 0)
	raw, err := net.Dial("tcp", srv.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	ctrl := transport.NewConn(raw)
	defer ctrl.Close()
	// Send a non-Hello first message; the server must close the connection.
	if err := ctrl.Send(transport.PoseUpdate{User: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Recv(); err == nil {
		t.Fatal("server should close connections that skip the handshake")
	}
	if stats := srv.Stats(); len(stats) != 0 {
		t.Fatalf("no session should exist, got %d", len(stats))
	}
}

func TestServerSuppressesAckedTiles(t *testing.T) {
	srv := newTestServer(t, 0)
	fc := dialFake(t, srv, 1)
	defer fc.close()

	pose := vrmath.Pose{Pos: vrmath.Vec3{X: 2, Z: 2}}
	fc.ctrl.Send(transport.PoseUpdate{User: 1, Slot: 0, Pose: pose})
	packets := fc.drainPackets(150 * time.Millisecond)
	if len(packets) == 0 {
		t.Fatal("no tiles before ACK")
	}
	// ACK everything seen, keep reporting the same pose, and observe that
	// the ledger suppresses retransmission.
	seen := map[tiles.VideoID]bool{}
	for _, p := range packets {
		seen[p.VideoID] = true
	}
	var ids []tiles.VideoID
	for id := range seen {
		ids = append(ids, id)
	}
	fc.ctrl.Send(transport.TileACK{User: 1, Slot: packets[0].Slot, Tiles: ids, Covered: true, Displayed: true})
	time.Sleep(30 * time.Millisecond)
	fc.ctrl.Send(transport.PoseUpdate{User: 1, Slot: 1, Pose: pose})
	fc.drainPackets(150 * time.Millisecond)

	stats := srv.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats = %d sessions", len(stats))
	}
	if stats[0].TilesSkipped == 0 {
		t.Errorf("repetitive-tile suppression never engaged: %+v", stats[0])
	}

	// A release notice clears the ledger so the tiles flow again.
	fc.ctrl.Send(transport.Release{User: 1, Tiles: ids})
	time.Sleep(30 * time.Millisecond)
	fc.ctrl.Send(transport.PoseUpdate{User: 1, Slot: 2, Pose: pose})
	if again := fc.drainPackets(200 * time.Millisecond); len(again) == 0 {
		t.Errorf("released tiles should be retransmitted")
	}
}

func TestServerPrefetchWarmsNeighborCells(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 5 * time.Millisecond
	cfg.PrefetchRadius = 1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fc := dialFake(t, srv, 2)
	defer fc.close()
	fc.ctrl.Send(transport.PoseUpdate{User: 2, Slot: 0, Pose: vrmath.Pose{Pos: vrmath.Vec3{X: 3, Z: 3}}})
	fc.drainPackets(200 * time.Millisecond)

	// The prefetcher should have populated far more tiles than the single
	// cell actually served.
	if got := srv.store.Cached(); got < 8 {
		t.Errorf("cached tiles = %d, want prefetched neighbourhood (>= 8)", got)
	}
}

func TestServerStopsAfterTotalSlots(t *testing.T) {
	srv := newTestServer(t, 10)
	select {
	case <-srv.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("server did not stop after TotalSlots")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := newTestServer(t, 0)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestDelayTableFallsBackToMM1(t *testing.T) {
	sess := &session{}
	rates := []float64{5, 10, 20, 30, 40, 45}
	table := make([]float64, len(rates))
	sess.DelayTableInto(table, rates, 50, 1000.0/60)
	if len(table) != len(rates) {
		t.Fatalf("table length %d", len(table))
	}
	for i := 1; i < len(table); i++ {
		if table[i] < table[i-1] {
			t.Errorf("MM1 fallback not increasing at %d", i)
		}
	}
}

func TestDelayTableUsesRegression(t *testing.T) {
	sess := &session{}
	// Feed a quadratic delay curve as ACK history. The capacity estimate is
	// far above the probed rates, so the M/M/1 floor stays negligible and
	// the regression dominates.
	for r := 2.0; r <= 40; r += 2 {
		sess.delayRates = append(sess.delayRates, r)
		sess.delayMs = append(sess.delayMs, 0.01*r*r+0.5)
	}
	rates := []float64{10, 20, 30}
	table := make([]float64, len(rates))
	sess.DelayTableInto(table, rates, 500, 1000.0/60)
	for i, r := range rates {
		want := 0.01*r*r + 0.5
		if diff := table[i] - want; diff > 0.5 || diff < -0.5 {
			t.Errorf("regression prediction at %v = %v, want about %v", r, table[i], want)
		}
	}
	// Near the estimated capacity the M/M/1 floor takes over: the table
	// must blow up past the bounded regression forecast.
	cliff := make([]float64, 1)
	sess.DelayTableInto(cliff, []float64{48}, 50, 1000.0/60)
	if cliff[0] < 100 {
		t.Errorf("delay at 96%% of capacity = %v ms, want the M/M/1 cliff", cliff[0])
	}
}

func TestHandleNackRetransmits(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.RetransmitOnNack = true
	srv := testServer(t, cfg)
	sess := bareSession(t, srv.decider, 1, 4)
	lost, _ := tiles.PackVideoID(tiles.CellID{X: 1}, 0, 3)
	acked, _ := tiles.PackVideoID(tiles.CellID{X: 1}, 1, 3)
	sess.ledger.MarkDelivered(acked)

	srv.handleNack(sess, transport.Nack{User: 1, Slot: 9, Tiles: []tiles.VideoID{lost, acked}})

	select {
	case batch := <-sess.sendCh:
		if len(batch) != 1 || batch[0].id != lost {
			t.Errorf("retransmit batch = %v, want only the lost tile", batch)
		}
		if len(batch[0].payload) == 0 {
			t.Errorf("empty retransmit payload")
		}
	default:
		t.Fatal("nothing enqueued for retransmission")
	}
	if sess.retransmits != 1 {
		t.Errorf("retransmits = %d, want 1", sess.retransmits)
	}
}

func TestHandleNackDisabled(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	srv := testServer(t, cfg)
	sess := bareSession(t, srv.decider, 1, 4)
	id, _ := tiles.PackVideoID(tiles.CellID{X: 1}, 0, 3)
	srv.handleNack(sess, transport.Nack{User: 1, Slot: 9, Tiles: []tiles.VideoID{id}})
	select {
	case <-sess.sendCh:
		t.Fatal("retransmission despite RetransmitOnNack=false")
	default:
	}
}

func TestEnqueueDropOldestAndShutdown(t *testing.T) {
	srv := testServer(t, DefaultConfig(core.NewSolverAllocator()))
	sess := &session{sendCh: make(chan []tileJob, 1)}
	a := []tileJob{{slot: 1}}
	b := []tileJob{{slot: 2}}
	if !srv.enqueue(sess, a) {
		t.Fatal("first enqueue failed")
	}
	// Queue full: the oldest batch is dropped, the new one queued.
	if !srv.enqueue(sess, b) {
		t.Fatal("drop-oldest enqueue failed")
	}
	got := <-sess.sendCh
	if got[0].slot != 2 {
		t.Errorf("queued slot = %d, want 2 (oldest dropped)", got[0].slot)
	}
	// After shutdown, enqueue refuses without panicking.
	srv.closeSend(sess)
	if srv.enqueue(sess, a) {
		t.Error("enqueue after close should fail")
	}
	srv.closeSend(sess) // idempotent
}

func TestServerBadHelloUDPAddr(t *testing.T) {
	srv := newTestServer(t, 0)
	raw, err := net.Dial("tcp", srv.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	ctrl := transport.NewConn(raw)
	defer ctrl.Close()
	if err := ctrl.Send(transport.Hello{User: 1, UDPAddr: "not-an-addr"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Recv(); err == nil {
		t.Fatal("server should close connections with bad UDP addresses")
	}
}

func TestHandleACKUpdatesEstimates(t *testing.T) {
	c := testDecider(t, DefaultConfig(core.NewSolverAllocator()))
	sess := bareSession(t, c, 1, 1)
	sess.allocated[5] = allocRecord{level: 4, rate: 30}
	id, _ := tiles.PackVideoID(tiles.CellID{X: 1}, 0, 4)
	// 60 KB over 10 ms = 48 Mbps goodput.
	c.ack(sess, transport.TileACK{
		User: 1, Slot: 5, Tiles: []tiles.VideoID{id},
		DelayMs: 10, Bytes: 60000, Covered: true, Displayed: true,
	})
	if !sess.ledger.Has(id) {
		t.Errorf("ACKed tile not recorded in ledger")
	}
	if got := sess.ema.Value(); got < 40 || got > 56 {
		t.Errorf("EMA estimate = %v, want about 48", got)
	}
	if sess.T != 1 || sess.Covered != 1 || sess.SumViewedQ != 4 {
		t.Errorf("QoE state = t%d covered%d sum%v", sess.T, sess.Covered, sess.SumViewedQ)
	}
	if len(sess.delayRates) != 1 || sess.delayRates[0] != 30 {
		t.Errorf("delay sample not recorded: %v", sess.delayRates)
	}
	if _, ok := sess.allocated[5]; ok {
		t.Errorf("allocation record should be consumed")
	}
}

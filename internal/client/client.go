// Package client implements the user-side application of the paper's system
// (Section VI) as an emulator for commodity mobile devices: it replays a
// real motion trace, uploads poses to the server over TCP, receives the
// RTP-like tile stream over UDP, reassembles and "decodes" tiles on a pool
// of parallel decoders, enforces per-slot display deadlines (tiles are
// displayed or dropped, never prefetched), acknowledges delivered tiles,
// and releases old tiles when its RAM threshold is reached.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/obs"
	"repro/internal/randsrc"
	"repro/internal/tiles"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vrmath"
)

// Config parametrizes a client.
type Config struct {
	User       uint32
	ServerAddr string // server control (TCP) address
	// Trace is the motion trace the client replays (wraps around).
	Trace motion.Trace
	// SlotDuration must match the server's.
	SlotDuration time.Duration
	// RAMThreshold is the maximum number of tiles held before releasing
	// (device-memory dependent, per the paper).
	RAMThreshold int
	Params       metrics.QoEParams
	// Slots stops the client after this many display slots (0 = until the
	// server closes the control connection).
	Slots int
	// NackLost enables the loss-handling extension of the paper's
	// Discussion section: tiles with missing fragments are reported so the
	// server retransmits them.
	NackLost bool
	// Reconnect enables automatic redial when the control connection drops
	// mid-run: capped full-jitter exponential backoff, a fresh Hello with
	// the SAME UDP address (so the tile stream resumes where it was), and
	// validation that the server's Welcome resumes this user's session.
	Reconnect bool
	// ReconnectAttempts bounds consecutive redial attempts before the
	// client gives up (default 5; the counter resets on success).
	ReconnectAttempts int
	// ReconnectBase and ReconnectCap tune the redial backoff: attempt k
	// sleeps uniform [0, min(Cap, Base<<k)) (defaults 50 ms / 1 s).
	ReconnectBase time.Duration
	ReconnectCap  time.Duration
	// Redirect, when non-nil, supplies the control address to dial on each
	// reconnect attempt (the initial dial always uses ServerAddr). A fleet
	// coordinator points it at whichever shard currently owns the session,
	// so a migration's forced disconnect redials straight to the adopting
	// shard. Must be safe for concurrent use.
	Redirect func() string
	// Metrics receives the client's counters/histograms (names prefixed
	// collabvr_client_); nil disables metrics with near-zero overhead.
	Metrics *obs.Registry
	// Tracer receives the client half of each tile request's trace
	// (rx.recv, rx.decode, rx.display), stitched onto the server's spans by
	// the trace ID carried in the packet headers; nil disables tracing.
	Tracer *trace.Tracer
}

// decoders is the number of parallel hardware decoders (paper: 5).
const decoders = 5

// clientMetrics bundles the client-side instruments; all nil-safe.
type clientMetrics struct {
	tiles      *obs.Counter
	bytes      *obs.Counter
	nacks      *obs.Counter
	releases   *obs.Counter
	displayed  *obs.Counter
	missed     *obs.Counter
	duplicates *obs.Counter
	incomplete *obs.Counter
	malformed  *obs.Counter
	reconnects *obs.Counter
	delayMs    *obs.Histogram
	setupMs    *obs.Histogram
}

func newClientMetrics(r *obs.Registry) clientMetrics {
	return clientMetrics{
		tiles:      r.Counter("collabvr_client_tiles_received_total"),
		bytes:      r.Counter("collabvr_client_bytes_received_total"),
		nacks:      r.Counter("collabvr_client_nack_tiles_total"),
		releases:   r.Counter("collabvr_client_tiles_released_total"),
		displayed:  r.Counter("collabvr_client_frames_displayed_total"),
		missed:     r.Counter("collabvr_client_frames_missed_total"),
		duplicates: r.Counter("collabvr_client_rx_duplicate_fragments_total"),
		incomplete: r.Counter("collabvr_client_rx_incomplete_tiles_dropped_total"),
		malformed:  r.Counter("collabvr_client_rx_malformed_total"),
		reconnects: r.Counter("collabvr_client_reconnects_total"),
		delayMs:    r.Histogram("collabvr_client_slot_delay_ms", obs.DefaultLatencyBuckets()),
		setupMs:    r.Histogram("collabvr_client_setup_ms", obs.DefaultLatencyBuckets()),
	}
}

// DefaultConfig returns the paper's client parameters.
func DefaultConfig(user uint32, serverAddr string, trace motion.Trace) Config {
	return Config{
		User:         user,
		ServerAddr:   serverAddr,
		Trace:        trace,
		SlotDuration: time.Second / 60,
		RAMThreshold: 512,
		Params:       metrics.QoEParams{Alpha: 0.1, Beta: 0.5},
	}
}

// Result is the client-side outcome of a run.
type Result struct {
	User     uint32
	Report   metrics.Report
	Slots    int
	Tiles    int
	Bytes    int
	Releases int
	// Nacks counts loss reports sent (only with Config.NackLost).
	Nacks int
	// Reconnects counts successful control-channel redials (only with
	// Config.Reconnect).
	Reconnects int
	// Resumes counts Welcomes that resumed handed-off session state
	// (fleet live migration), and LastShard is the shard that sent the
	// most recent Welcome.
	Resumes   int
	LastShard int
	// SetupMs is the session setup latency: dial to the server's Welcome
	// (or to the Hello send, against a server that never acknowledges).
	SetupMs float64
}

// Run connects, streams until the configured horizon (or server shutdown),
// and returns the observed QoE metrics. It is synchronous; run one
// goroutine per emulated user.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Trace) == 0 {
		return nil, errors.New("client: empty motion trace")
	}
	if cfg.SlotDuration <= 0 {
		cfg.SlotDuration = time.Second / 60
	}
	if cfg.RAMThreshold <= 0 {
		cfg.RAMThreshold = 512
	}
	if cfg.ReconnectAttempts <= 0 {
		cfg.ReconnectAttempts = 5
	}
	if cfg.ReconnectBase <= 0 {
		cfg.ReconnectBase = 50 * time.Millisecond
	}
	if cfg.ReconnectCap <= 0 {
		cfg.ReconnectCap = time.Second
	}

	setupStart := time.Now()
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("client: listen udp: %w", err)
	}
	defer udp.Close()

	raw, err := net.Dial("tcp", cfg.ServerAddr)
	if err != nil {
		return nil, fmt.Errorf("client: dial server: %w", err)
	}
	return runOn(cfg, raw, udp, setupStart)
}

// runOn is Run past the dial: the handshake and the session over an
// established control connection (which it closes) and UDP socket.
func runOn(cfg Config, raw net.Conn, udp *net.UDPConn, setupStart time.Time) (*Result, error) {
	ctrl := transport.NewConn(raw)

	if err := ctrl.Send(transport.Hello{
		User:         cfg.User,
		UDPAddr:      udp.LocalAddr().String(),
		RAMThreshold: cfg.RAMThreshold,
	}); err != nil {
		ctrl.Close()
		return nil, err
	}

	c := &runner{
		cfg:    cfg,
		obs:    newClientMetrics(cfg.Metrics),
		ctrl:   ctrl,
		udp:    udp,
		reasm:  transport.NewReassembler(),
		ram:    tiles.NewClientRAM(cfg.RAMThreshold),
		acc:    metrics.NewUserQoE(cfg.Params),
		byslot: make(map[uint32][]tiles.VideoID),
		rng:    randsrc.NewRand(int64(cfg.User)*40503 + 7),
	}
	defer c.closeCtrl()
	c.reasm.Instrument(c.obs.duplicates, c.obs.incomplete)
	c.setupStart = setupStart
	// Fallback setup latency against servers that never send Welcome (the
	// control reader overwrites it when one arrives).
	c.setupMs = float64(time.Since(setupStart)) / float64(time.Millisecond)
	return c.run()
}

// runner carries the per-run state.
type runner struct {
	cfg   Config
	obs   clientMetrics
	udp   *net.UDPConn
	reasm *transport.Reassembler
	ram   *tiles.ClientRAM
	acc   *metrics.UserQoE
	rng   *rand.Rand // redial jitter; touched only by the control reader

	// ctrlMu guards the control connection pointer, which the reader
	// goroutine swaps on reconnect while the display loop keeps sending.
	ctrlMu sync.Mutex
	ctrl   *transport.Conn
	closed bool // shutdown in progress: the reader must not redial

	mu      sync.Mutex
	byslot  map[uint32][]tiles.VideoID // complete tiles per server slot
	lists   [][]tiles.VideoID          // emptied byslot lists, for the next slots
	maxSlot uint32
	anySlot bool

	// Display scratch, touched only by the tick loop: the tiles a slot
	// releases from RAM and NACKs, and the tiles its actual view needs.
	released []tiles.VideoID
	lost     []tiles.VideoID
	needed   []tiles.TileID

	tilesTotal int
	bytesTotal int
	releases   int
	nacks      int
	reconnects int
	resumes    int // guarded by ctrlMu, like reconnects
	lastShard  int

	setupStart time.Time
	setupMu    sync.Mutex
	setupMs    float64

	ctrlEnd sync.Once
	endCh   chan struct{}
}

// conn is the current control connection (the reader swaps it on reconnect).
func (c *runner) conn() *transport.Conn {
	c.ctrlMu.Lock()
	defer c.ctrlMu.Unlock()
	return c.ctrl
}

// send queues one control message on the current connection; the tick loop
// writes a tick's messages together with flush. During a reconnect window
// flushes fail silently and the messages are lost, as are any queued on a
// connection that is swapped out before its flush — the same contract as a
// dropped datagram; the server's NACK/ACK machinery absorbs it.
func (c *runner) send(msg any) error { return c.conn().Queue(msg) }

// flush writes what send queued on the current connection as one write.
func (c *runner) flush() error { return c.conn().Flush() }

// closeCtrl marks the run as shutting down (so the control reader stops
// redialing) and closes the live connection.
func (c *runner) closeCtrl() {
	c.ctrlMu.Lock()
	c.closed = true
	ctrl := c.ctrl
	c.ctrlMu.Unlock()
	ctrl.Close()
}

// redial attempts to re-establish the control session after a drop: dial,
// Hello with the SAME UDP address, and a synchronous Welcome check that the
// server resumed this user's session. Backoff is full-jitter exponential.
// Returns the new connection, or nil when the attempt budget is exhausted or
// shutdown began.
func (c *runner) redial() *transport.Conn {
	for attempt := 0; attempt < c.cfg.ReconnectAttempts; attempt++ {
		d := c.cfg.ReconnectBase << uint(attempt)
		if d > c.cfg.ReconnectCap || d <= 0 {
			d = c.cfg.ReconnectCap
		}
		time.Sleep(time.Duration(c.rng.Int63n(int64(d) + 1)))
		c.ctrlMu.Lock()
		done := c.closed
		c.ctrlMu.Unlock()
		if done {
			return nil
		}
		addr := c.cfg.ServerAddr
		if c.cfg.Redirect != nil {
			// A fleet migration moved the session: redial the shard that
			// adopted it, not the one that closed on us.
			addr = c.cfg.Redirect()
		}
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			continue
		}
		ctrl := transport.NewConn(raw)
		err = ctrl.Send(transport.Hello{
			User:         c.cfg.User,
			UDPAddr:      c.udp.LocalAddr().String(),
			RAMThreshold: c.cfg.RAMThreshold,
		})
		if err == nil {
			// Session-resume validation: the server must answer with a
			// Welcome for this user before the connection is trusted.
			ctrl.SetDeadline(time.Now().Add(2 * time.Second))
			msg, rerr := ctrl.Recv()
			w, ok := msg.(transport.Welcome)
			if rerr == nil && ok && w.User == c.cfg.User {
				ctrl.SetDeadline(time.Time{})
				c.ctrlMu.Lock()
				if w.Resumed {
					c.resumes++
				}
				c.lastShard = w.Shard
				c.ctrlMu.Unlock()
				return ctrl
			}
		}
		ctrl.Close()
	}
	return nil
}

func (c *runner) run() (*Result, error) {
	c.endCh = make(chan struct{})

	// UDP receive pump.
	recvDone := make(chan struct{})
	go c.receiveLoop(recvDone)

	// Control-channel reader: consumes the Welcome handshake ack (the
	// precise setup-latency mark) and detects connection shutdown
	// immediately. With Config.Reconnect it owns the redial loop: on a Recv
	// error it re-establishes the session and swaps the connection in under
	// ctrlMu, ending the run only when the redial budget is exhausted.
	go func() {
		for {
			c.ctrlMu.Lock()
			ctrl := c.ctrl
			c.ctrlMu.Unlock()
			msg, err := ctrl.Recv()
			if err != nil {
				c.ctrlMu.Lock()
				done := c.closed
				c.ctrlMu.Unlock()
				if done || !c.cfg.Reconnect {
					c.ctrlEnd.Do(func() { close(c.endCh) })
					return
				}
				next := c.redial()
				if next == nil {
					c.ctrlEnd.Do(func() { close(c.endCh) })
					return
				}
				c.ctrlMu.Lock()
				if c.closed {
					c.ctrlMu.Unlock()
					next.Close()
					c.ctrlEnd.Do(func() { close(c.endCh) })
					return
				}
				c.ctrl.Close()
				c.ctrl = next
				c.reconnects++
				c.ctrlMu.Unlock()
				c.obs.reconnects.Inc()
				continue
			}
			if w, ok := msg.(transport.Welcome); ok {
				c.setupMu.Lock()
				c.setupMs = float64(time.Since(c.setupStart)) / float64(time.Millisecond)
				c.setupMu.Unlock()
				c.ctrlMu.Lock()
				if w.Resumed {
					c.resumes++
				}
				c.lastShard = w.Shard
				c.ctrlMu.Unlock()
			}
		}
	}()

	ticker := time.NewTicker(c.cfg.SlotDuration)
	defer ticker.Stop()

	localSlot := 0
	processed := uint32(0)
	prevMax := uint32(0)
	displayed := 0
	running := true
	for running {
		select {
		case <-ticker.C:
		case <-c.endCh:
			running = false
		}

		// Upload the current pose (trace replay): first in this tick's
		// control write, ahead of the displayed slots' NACK, Release and ACK.
		pose := c.cfg.Trace[localSlot%len(c.cfg.Trace)]
		_ = c.send(transport.PoseUpdate{
			User: c.cfg.User,
			Slot: uint32(localSlot),
			Pose: pose,
		})
		localSlot++

		c.harvest(processed)

		// Display pipeline. Tiles for server slot t are decoded during t+1
		// and displayed at t+2 (the paper's pipelining), which here means a
		// slot is displayed one tick after its last packet can arrive.
		// With repetitive-tile suppression the server sends nothing in
		// steady state, so the display clock must keep running and render
		// from RAM: when no new slot arrived since the previous tick, the
		// next slot is displayed anyway.
		c.mu.Lock()
		maxSlot, any := c.maxSlot, c.anySlot
		c.mu.Unlock()
		if any {
			target := maxSlot // display everything strictly below maxSlot
			if !running {
				target++ // drain the final slot on shutdown
			} else if maxSlot == prevMax {
				// No new packets: steady-state frame from RAM.
				target = processed + 1
			}
			for processed < target {
				c.displaySlot(processed)
				displayed++
				processed++
				if c.cfg.Slots > 0 && displayed >= c.cfg.Slots {
					running = false
					break
				}
			}
			prevMax = maxSlot
		}

		// One control write per tick. With reconnect enabled a failed write
		// is a transient outage — the control reader is already redialing,
		// and it closes endCh if that fails for good.
		if err := c.flush(); err != nil && !c.cfg.Reconnect {
			running = false
		}
	}

	c.udp.Close()
	<-recvDone

	c.setupMu.Lock()
	setupMs := c.setupMs
	c.setupMu.Unlock()
	c.obs.setupMs.Observe(setupMs)
	c.ctrlMu.Lock()
	reconnects := c.reconnects
	resumes := c.resumes
	lastShard := c.lastShard
	c.ctrlMu.Unlock()
	return &Result{
		User:       c.cfg.User,
		Report:     metrics.Aggregate([]*metrics.UserQoE{c.acc}),
		Slots:      c.acc.Slots(),
		Tiles:      c.tilesTotal,
		Bytes:      c.bytesTotal,
		Releases:   c.releases,
		Nacks:      c.nacks,
		Reconnects: reconnects,
		Resumes:    resumes,
		LastShard:  lastShard,
		SetupMs:    setupMs,
	}, nil
}

// harvest buckets the tiles completed since the last tick by server slot.
// Tiles for slots already displayed (below processed; NACK retransmissions,
// say) go to the next display slot: their frame is gone, but the content
// still feeds RAM for upcoming frames.
func (c *runner) harvest(processed uint32) {
	done := c.reasm.Flush()
	c.mu.Lock()
	for _, tile := range done {
		slot := max(tile.Slot, processed)
		ids, ok := c.byslot[slot]
		if n := len(c.lists); !ok && n > 0 {
			ids, c.lists = c.lists[n-1], c.lists[:n-1]
		}
		c.byslot[slot] = append(ids, tile.VideoID)
		c.tilesTotal++
		c.bytesTotal += len(tile.Payload)
		c.obs.tiles.Inc()
		c.obs.bytes.Add(uint64(len(tile.Payload)))
	}
	c.mu.Unlock()
	// Only the payloads' lengths are read: the buffers go back to the
	// reassembler for the next tiles.
	c.reasm.Reclaim(done)
}

// receiveLoop ingests datagrams into the reassembler.
func (c *runner) receiveLoop(done chan<- struct{}) {
	defer close(done)
	buf := make([]byte, 65536)
	var p transport.Packet // every datagram decodes into this one
	for {
		// ReadFromUDPAddrPort returns the source by value; ReadFrom
		// allocates a net.Addr per datagram.
		n, _, err := c.udp.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		if err := transport.DecodeInto(&p, buf[:n]); err != nil {
			// Malformed (truncated, corrupted, bad checksum) datagrams are
			// counted and dropped — never allowed to crash the pump.
			c.obs.malformed.Inc()
			continue
		}
		if p.User != c.cfg.User {
			continue
		}
		now := time.Now()
		c.reasm.Ingest(&p, now)
		c.mu.Lock()
		if !c.anySlot || p.Slot > c.maxSlot {
			c.maxSlot = p.Slot
			c.anySlot = true
		}
		c.mu.Unlock()
	}
}

// displaySlot runs the decode-and-display deadline logic for one server
// slot and reports the ACK.
func (c *runner) displaySlot(slot uint32) {
	if c.cfg.NackLost {
		c.lost = c.reasm.IncompleteAppend(c.lost[:0], slot)
		if lost := c.lost; len(lost) > 0 {
			c.nacks += len(lost)
			c.obs.nacks.Add(uint64(len(lost)))
			_ = c.send(transport.Nack{User: c.cfg.User, Slot: slot, Tiles: lost})
		}
	}
	stats, _ := c.reasm.FlushSlot(slot)
	// The trace ID rode in on the slot's packet headers; an untraced or
	// packet-less slot (stats.Trace == 0) emits no spans.
	traceID := stats.Trace
	rsp := c.cfg.Tracer.StartAt(traceID, trace.StageRecv, trace.SideClient, c.cfg.User, slot, stats.First.UnixNano())
	rsp.SetTiles(stats.Tiles)
	rsp.SetBytes(stats.Bytes)
	rsp.SetRetry(stats.MaxRetry)
	rsp.EndAt(stats.Last.UnixNano())

	c.mu.Lock()
	ids := c.byslot[slot]
	delete(c.byslot, slot)
	actual := c.cfg.Trace[int(slot)%len(c.cfg.Trace)]
	c.mu.Unlock()

	// RAM admission: every complete tile enters RAM; evictions are
	// released to the server.
	released := c.released[:0]
	for _, id := range ids {
		released = c.ram.AddAppend(released, id)
	}
	c.released = released
	if len(released) > 0 {
		c.releases += len(released)
		c.obs.releases.Add(uint64(len(released)))
		_ = c.send(transport.Release{User: c.cfg.User, Tiles: released})
	}

	// Decode stage: the parallel decoders handle up to decoders new tiles
	// per slot; beyond that the frame misses its display deadline.
	dsp := c.cfg.Tracer.Start(traceID, trace.StageDecode, trace.SideClient, c.cfg.User, slot)
	decodable := len(ids) <= decoders

	// Coverage: the tiles of the actual FoV (for the actual cell) must be
	// available, freshly delivered or held in RAM, at some quality level.
	level, covered := c.coverage(actual, ids)
	dsp.SetTiles(len(ids))
	dsp.SetLevel(level)
	if !decodable {
		dsp.SetErr("decoder-overflow")
	}
	dsp.End()

	// A frame counts as displayed when it made its deadline with content to
	// show: decodable and either fresh tiles or a full RAM-covered view.
	displayed := decodable && (len(ids) > 0 || covered)
	delayMs := float64(stats.Delay()) / float64(time.Millisecond)

	psp := c.cfg.Tracer.Start(traceID, trace.StageDisplay, trace.SideClient, c.cfg.User, slot)
	psp.SetLevel(level)
	psp.SetRetry(stats.MaxRetry)
	if displayed {
		psp.SetOutcome(trace.OutcomeDisplayed)
	} else {
		psp.SetOutcome(trace.OutcomeMissed)
	}
	psp.End()

	c.acc.Observe(level, covered && decodable, delayMs)
	c.acc.ObserveFrame(displayed)
	if displayed {
		c.obs.displayed.Inc()
	} else {
		c.obs.missed.Inc()
	}
	c.obs.delayMs.Observe(delayMs)

	_ = c.send(transport.TileACK{
		User:      c.cfg.User,
		Slot:      slot,
		Tiles:     ids,
		DelayMs:   delayMs,
		Bytes:     stats.Bytes,
		Covered:   covered && decodable,
		Displayed: displayed,
	})
	// Queue encoded the ACK and kept nothing: the list serves a later slot.
	if ids != nil {
		c.mu.Lock()
		c.lists = append(c.lists, ids[:0])
		c.mu.Unlock()
	}
}

// coverage checks whether the tiles needed by the actual FoV are available
// (delivered this slot or held in RAM) for the actual cell, and returns the
// displayed quality level: the minimum level across the needed tiles, using
// the best version held for each.
func (c *runner) coverage(actual vrmath.Pose, delivered []tiles.VideoID) (int, bool) {
	cell := tiles.CellFor(actual.Pos)
	c.needed = tiles.ForViewAppend(c.needed[:0], actual, vrmath.DefaultFoV, 0)
	needed := c.needed

	// bestLevel finds the highest available quality of one tile.
	bestLevel := func(tile tiles.TileID) int {
		best := 0
		for _, id := range delivered {
			dc, dt, dl := id.Unpack()
			if dc == cell && dt == tile && dl > best {
				best = dl
			}
		}
		for l := tiles.Levels; l > best; l-- {
			if id, err := tiles.PackVideoID(cell, tile, l); err == nil && c.ram.Holds(id) {
				best = l
				break
			}
		}
		return best
	}

	frameLevel := tiles.Levels
	for _, tile := range needed {
		l := bestLevel(tile)
		if l == 0 {
			// A needed tile is missing entirely: no coverage. Report the
			// level of whatever content was delivered, for accounting.
			if len(delivered) > 0 {
				_, _, dl := delivered[0].Unpack()
				return dl, false
			}
			return 1, false
		}
		if l < frameLevel {
			frameLevel = l
		}
	}
	return frameLevel, true
}

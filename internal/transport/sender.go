package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tiles"
)

// Shaper models an in-path rate limiter (the testbed's Linux-TC stand-in).
// Admit charges a packet and returns how long to hold it; Drop reports
// whether to lose it.
type Shaper interface {
	Admit(bytes int, now time.Time) time.Duration
	Drop() bool
}

// nopShaper performs no shaping and no loss.
type nopShaper struct{}

// Admit implements Shaper.
func (nopShaper) Admit(int, time.Time) time.Duration { return 0 }

// Drop implements Shaper.
func (nopShaper) Drop() bool { return false }

// ChainShaper applies several shapers in sequence (e.g. a per-user throttle
// followed by a shared router bucket); the packet waits for the slowest and
// is dropped if any stage drops it.
type ChainShaper []Shaper

// Admit implements Shaper.
func (c ChainShaper) Admit(bytes int, now time.Time) time.Duration {
	var worst time.Duration
	for _, s := range c {
		if d := s.Admit(bytes, now); d > worst {
			worst = d
		}
	}
	return worst
}

// Drop implements Shaper.
func (c ChainShaper) Drop() bool {
	for _, s := range c {
		if s.Drop() {
			return true
		}
	}
	return false
}

// Sender paces tile fragments of one user over a UDP socket, sleeping as
// the shaper dictates. It is the server-side transmit path of the RTP-like
// stream.
//
// Tiles can be sent immediately (SendTile/sendTileTraced) or staged with
// QueueTile/QueueTileTraced and transmitted together by Flush. Batched or
// not, the wire path is the same code: byte-identical datagrams, identical
// per-packet fault and shaper decisions, in queue order.
//
// On Linux, over a *net.UDPConn, the wire path writes one pacing run per
// system call: datagrams the shaper admits without a sleep are encoded back
// to back into a train and handed to the kernel as one UDP_SEGMENT write,
// which splits them into ordinary datagrams again (see stage and
// writeTrain). A train never outlives the call that staged it and is written
// before every pacing sleep. Everywhere else a train is one datagram and
// every datagram is one write.
type Sender struct {
	conn   net.PacketConn
	dst    net.Addr
	shaper Shaper
	mtu    int

	// udp and dstAP are conn and dst where both are UDP: the single-datagram
	// write then skips the net.Addr to sockaddr conversion, and trains are
	// possible at all.
	udp   *net.UDPConn
	dstAP netip.AddrPort

	// sendMu serializes the wire path (fragment encode, fault/shaper
	// decisions, writes) and guards the batch queue, the train and the
	// scratch buffers.
	sendMu    sync.Mutex
	heldBuf   []byte // at most one reorder-held datagram
	batch     []queuedTile
	qPkts     int // wire packets the current batch will produce
	batchSize int // auto-flush threshold; <= 1 sends immediately

	// The train: datagrams admitted and not yet written, as back-to-back
	// [header|fragment] records. Every record is segSize bytes long except
	// the last, which may be shorter: the shape UDP_SEGMENT takes, and the
	// shape of a tile's fragments.
	train        []byte
	segs         int // records in the train
	segSize      int // length of the train's first record
	maxSegs      int // trainSegs where the socket takes trains, 1 where every datagram is its own write
	pendingDrops int // drops decided since the last write, counted with it
	// segWrite writes a train of two or more records as one segmented
	// datagram (nil where maxSegs is 1). A field so a test can refuse one.
	segWrite func(train []byte, segSize int) error
	oob      []byte // segWrite's control message

	mu        sync.Mutex
	faults    FaultInjector // nil = no fault injection
	seq       uint32
	sentPkts  int
	sentBytes int
	dropped   int

	// Optional observability counters (nil means disabled; see Instrument).
	cPackets  *obs.Counter
	cBytes    *obs.Counter
	cDropped  *obs.Counter
	cWrites   *obs.Counter
	cFallback *obs.Counter
}

// queuedTile is one staged tile awaiting Flush. The payload is aliased,
// not copied: callers must keep it unmodified until the batch flushes.
type queuedTile struct {
	user    uint32
	slot    uint32
	id      tiles.VideoID
	trace   uint64
	retry   uint8
	payload []byte
}

// NewSender builds a sender toward dst. A nil shaper means no shaping.
func NewSender(conn net.PacketConn, dst net.Addr, shaper Shaper, mtu int) *Sender {
	if shaper == nil {
		shaper = nopShaper{}
	}
	if mtu <= HeaderSize {
		mtu = DefaultMTU
	}
	s := &Sender{conn: conn, dst: dst, shaper: shaper, mtu: mtu, maxSegs: 1}
	// An address the netip write would refuse (a UDPAddr without an IP, which
	// WriteTo reads as the unspecified address) stays on WriteTo.
	udp, _ := conn.(*net.UDPConn)
	ua, _ := dst.(*net.UDPAddr)
	if ap := ua.AddrPort(); udp != nil && ap.IsValid() {
		s.udp, s.dstAP = udp, netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
		s.enableTrains()
	}
	// A shaper that also injects packet faults (the chaos layer's
	// per-session injectors) is picked up automatically, so the server's
	// ShaperFor plumbing carries chaos without a second hook.
	if fi, ok := shaper.(FaultInjector); ok {
		s.faults = fi
	}
	return s
}

// setFaultInjector attaches (or clears) a packet-fault source explicitly,
// overriding the one inferred from the shaper. Call before the first
// SendTile.
func (s *Sender) setFaultInjector(fi FaultInjector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = fi
}

// Instrument attaches shared observability counters for transmitted packets,
// transmitted bytes and shaper drops. Nil counters are allowed (and free):
// they make the corresponding event unobserved. Call before the first
// SendTile.
func (s *Sender) Instrument(packets, bytes, dropped *obs.Counter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cPackets, s.cBytes, s.cDropped = packets, bytes, dropped
}

// InstrumentWrites attaches counters for the writes handed to the socket
// (packets over writes is the mean train length) and for a socket that
// refused a segmented write and went back to one write per datagram. Nil
// counters are allowed. Call before the first SendTile.
func (s *Sender) InstrumentWrites(writes, gsoFallback *obs.Counter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cWrites, s.cFallback = writes, gsoFallback
}

// SendTile fragments and transmits one tile for a slot, pacing against the
// shaper. It blocks until the last fragment conforms.
func (s *Sender) SendTile(user, slot uint32, id tiles.VideoID, payload []byte) error {
	return s.sendTileTraced(user, slot, id, payload, 0, 0)
}

// sendTileTraced is SendTile with a trace ID and retransmission count
// stamped into every fragment header, so the receiver can stitch its half of
// the request onto the sender's trace and attribute retransmissions. Any
// queued batch is flushed first, so queue-then-send keeps wire order.
func (s *Sender) sendTileTraced(user, slot uint32, id tiles.VideoID, payload []byte, traceID uint64, retry uint8) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	return s.sendNowLocked(user, slot, id, payload, traceID, retry)
}

// sendNowLocked sends one tile and writes what is left of its train.
func (s *Sender) sendNowLocked(user, slot uint32, id tiles.VideoID, payload []byte, traceID uint64, retry uint8) error {
	err := s.sendTileLocked(user, slot, id, payload, traceID, retry)
	if werr := s.writeTrain(); err == nil {
		err = werr
	}
	return err
}

// SetBatchSize sets the number of wire packets QueueTile* stages before
// flushing automatically. size <= 1 disables staging: queued tiles are
// sent immediately, making QueueTile byte-equivalent to SendTile call for
// call. Lowering the size does not flush an already-staged batch.
func (s *Sender) SetBatchSize(size int) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.batchSize = size
}

// QueueTile stages one tile for the next Flush (or sends it immediately
// when batching is off); see QueueTileTraced.
func (s *Sender) QueueTile(user, slot uint32, id tiles.VideoID, payload []byte) error {
	return s.QueueTileTraced(user, slot, id, payload, 0, 0)
}

// QueueTileTraced stages one tile for the next Flush. The payload is
// aliased until the batch flushes — callers must not recycle it earlier.
// When staging pushes the batch past BatchSize wire packets the batch is
// flushed inline and any transmit error is returned (errors never detach
// from the tile sequence: a returned nil means everything staged so far is
// either queued or on the wire).
func (s *Sender) QueueTileTraced(user, slot uint32, id tiles.VideoID, payload []byte, traceID uint64, retry uint8) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.batchSize <= 1 {
		if err := s.flushLocked(); err != nil {
			return err
		}
		return s.sendNowLocked(user, slot, id, payload, traceID, retry)
	}
	s.batch = append(s.batch, queuedTile{
		user: user, slot: slot, id: id,
		trace: traceID, retry: retry, payload: payload,
	})
	s.qPkts += packetCount(len(payload), s.mtu)
	if s.qPkts >= s.batchSize {
		return s.flushLocked()
	}
	return nil
}

// Flush transmits every staged tile in queue order — the slot-boundary
// flush of the batched send path. The tiles share trains: where the socket
// takes them, a flush costs one write per pacing run, not one per datagram.
// On a transmit error the already-sent prefix stays on the wire, the
// remaining tiles are discarded (a lost datagram and a lost batch tail look
// the same to the receiver: NACK and retransmit), the batch is cleared and
// the error is returned.
func (s *Sender) Flush() error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	return s.flushLocked()
}

// queued reports the staged batch: tiles and the wire packets they will
// produce.
func (s *Sender) queued() (tilesQueued, packets int) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	return len(s.batch), s.qPkts
}

func (s *Sender) flushLocked() error {
	if len(s.batch) == 0 {
		s.qPkts = 0
		return nil
	}
	var err error
	sent := 0
	for i := range s.batch {
		qt := &s.batch[i]
		if err = s.sendTileLocked(qt.user, qt.slot, qt.id, qt.payload, qt.trace, qt.retry); err != nil {
			break
		}
		sent++
	}
	if werr := s.writeTrain(); err == nil {
		err = werr
	}
	// Zero the staged entries so the reusable batch buffer does not retain
	// payload memory across slots.
	for i := range s.batch {
		s.batch[i] = queuedTile{}
	}
	s.batch = s.batch[:0]
	s.qPkts = 0
	if err != nil {
		return fmt.Errorf("transport: flush stopped after %d tiles: %w", sent, err)
	}
	return nil
}

// packetCount mirrors Fragment's fragment arithmetic (zero-length tiles
// still cost one packet; oversized tiles truncate at 0xFFFF fragments).
func packetCount(payloadLen, mtu int) int {
	if mtu <= HeaderSize {
		mtu = DefaultMTU
	}
	chunk := mtu - HeaderSize
	count := (payloadLen + chunk - 1) / chunk
	if count == 0 {
		count = 1
	}
	if count > 0xFFFF {
		count = 0xFFFF
	}
	return count
}

// Pacing sleeps are batched: token-bucket debt below sleepQuantum is carried
// instead of slept, so the OS sleep overshoot (tens of microseconds per
// wakeup) is amortized over several packets and the achieved rate stays
// close to the shaped rate.
const sleepQuantum = time.Millisecond

// A train holds at most trainSegs records (UDP_MAX_SEGMENTS in the kernels
// that first took UDP_SEGMENT) and trainBytes bytes (under the 65 507 a UDP
// datagram can carry).
const (
	trainSegs  = 64
	trainBytes = 64000
)

// sendTileLocked is the wire path: fragment, inject faults, shape, stage.
// It walks the fragments in place, encoding each straight into the train —
// no per-tile packet slice, no per-call buffer — and produces exactly the
// datagram bytes, order and per-packet fault decisions of the historical
// Fragment-then-send loop. What it leaves in the train is the caller's to
// write (writeTrain) before sendMu is released. Callers hold sendMu.
func (s *Sender) sendTileLocked(user, slot uint32, id tiles.VideoID, payload []byte, traceID uint64, retry uint8) error {
	mtu := s.mtu
	if mtu <= HeaderSize {
		mtu = DefaultMTU
	}
	chunk := mtu - HeaderSize
	count := packetCount(len(payload), mtu)

	s.mu.Lock()
	seq := s.seq
	s.seq += uint32(count)
	faults := s.faults
	s.mu.Unlock()

	if cap(s.train) == 0 {
		size := mtu
		if s.maxSegs > 1 {
			size = max(trainBytes, mtu)
		}
		s.train = make([]byte, 0, size)
	}
	// heldBuf carries at most one datagram the injector ordered behind its
	// successor — real on-the-wire reordering, not just added latency.
	haveHeld := false
	for i := 0; i < count; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > len(payload) {
			hi = len(payload)
		}
		var f PacketFault
		if faults != nil {
			f = faults.PacketFault()
		}
		if f.Drop || s.shaper.Drop() {
			s.pendingDrops++
			continue
		}
		p := Packet{
			Type:      PacketTile,
			User:      user,
			Slot:      slot,
			VideoID:   id,
			FragIdx:   uint16(i),
			FragCount: uint16(count),
			Seq:       seq + uint32(i),
			Retry:     retry,
			Trace:     traceID,
			Payload:   payload[lo:hi],
		}
		hold := f.Hold && !haveHeld
		into := s.heldBuf
		if !hold {
			var err error
			if into, err = s.stage(HeaderSize + hi - lo); err != nil {
				return err
			}
		}
		wire := p.Encode(into)
		if f.CorruptXOR != 0 {
			pos := f.CorruptPos % len(wire)
			if pos < 0 {
				pos += len(wire)
			}
			wire[pos] ^= f.CorruptXOR
		}
		if hold {
			s.heldBuf = wire
			haveHeld = true
			continue
		}
		if err := s.staged(); err != nil {
			return err
		}
		if f.Duplicate {
			if err := s.emit(wire); err != nil {
				return err
			}
		}
		if haveHeld {
			if err := s.emit(s.heldBuf); err != nil {
				return err
			}
			haveHeld = false
		}
	}
	if haveHeld {
		if err := s.emit(s.heldBuf); err != nil {
			return err
		}
	}
	return nil
}

// stage admits the next datagram, n bytes long, and returns the end of the
// train for the caller to encode it into, followed by a call to staged. The
// shaper is charged here, per datagram, exactly as when every datagram was
// its own write; a wait worth sleeping ends the train first, so no datagram
// is held across a pacing sleep. The train also ends where the next record
// would break its shape (longer than the first, or following a short one)
// or its size.
func (s *Sender) stage(n int) ([]byte, error) {
	if d := s.shaper.Admit(n, time.Now()); d >= sleepQuantum {
		if err := s.writeTrain(); err != nil {
			return nil, err
		}
		time.Sleep(d)
	}
	lastShort := len(s.train) < s.segs*s.segSize
	if s.segs > 0 && (n > s.segSize || lastShort || len(s.train)+n > trainBytes) {
		if err := s.writeTrain(); err != nil {
			return nil, err
		}
	}
	if s.segs == 0 {
		s.segSize = n
	}
	s.segs++
	at := len(s.train)
	s.train = s.train[:at+n]
	return s.train[at:], nil
}

// staged follows the encoding of the record stage returned: a full train is
// written at once, which where maxSegs is 1 is every datagram, right after
// its admission.
func (s *Sender) staged() error {
	if s.segs < s.maxSegs {
		return nil
	}
	return s.writeTrain()
}

// emit stages a copy of an encoded datagram: a duplicate, or the held one.
// wire may be a record of the train itself, which stage may have just
// written out and rewound; the bytes are still there and copy allows the
// overlap.
func (s *Sender) emit(wire []byte) error {
	rec, err := s.stage(len(wire))
	if err != nil {
		return err
	}
	copy(rec, wire)
	return s.staged()
}

// writeTrain writes the staged train, as one segmented datagram where it
// holds several records and the socket takes that, and empties it whatever
// the outcome. A socket that refuses a segmented write queued none of it:
// the train is replayed one datagram per write and the sender stays on
// single writes from then on. The transmit ledger and counters move here,
// once per train.
func (s *Sender) writeTrain() error {
	train, segs, segSize, drops := s.train, s.segs, s.segSize, s.pendingDrops
	s.train, s.segs, s.pendingDrops = s.train[:0], 0, 0
	if segs == 0 && drops == 0 {
		return nil
	}
	var err error
	sent, sentBytes, writes, fellBack := 0, 0, 0, false
	if segs > 1 {
		if err = s.segWrite(train, segSize); err == nil {
			sent, sentBytes, writes = segs, len(train), 1
		} else if segmentRefused(err) {
			s.maxSegs, fellBack, err = 1, true, nil
		}
	}
	for off := sentBytes; off < len(train) && err == nil; {
		end := min(off+segSize, len(train))
		if s.udp != nil {
			_, err = s.udp.WriteToUDPAddrPort(train[off:end], s.dstAP)
		} else {
			_, err = s.conn.WriteTo(train[off:end], s.dst)
		}
		if err == nil {
			sent, sentBytes, writes = sent+1, end, writes+1
			off = end
		}
	}
	if err != nil {
		err = fmt.Errorf("transport: send fragment: %w", err)
	}

	s.mu.Lock()
	s.sentPkts += sent
	s.sentBytes += sentBytes
	s.dropped += drops
	cPackets, cBytes, cDropped, cWrites, cFallback := s.cPackets, s.cBytes, s.cDropped, s.cWrites, s.cFallback
	s.mu.Unlock()
	cPackets.Add(uint64(sent))
	cBytes.Add(uint64(sentBytes))
	cDropped.Add(uint64(drops))
	cWrites.Add(uint64(writes))
	if fellBack {
		cFallback.Inc()
	}
	return err
}

// Stats returns cumulative transmit counters.
func (s *Sender) Stats() (packets, bytes, dropped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sentPkts, s.sentBytes, s.dropped
}

var (
	_ Shaper = nopShaper{}
	_ Shaper = ChainShaper(nil)
)

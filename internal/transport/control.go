package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/tiles"
	"repro/internal/vrmath"
)

// Control messages travel over the TCP side channel. Exactly one concrete
// type is wrapped per frame.
type (
	// Hello is the client's first message: who it is, where its UDP data
	// socket listens, and how many tiles its RAM holds before releasing.
	Hello struct {
		User         uint32
		UDPAddr      string
		RAMThreshold int
	}

	// Welcome is the server's handshake acknowledgement: the session was
	// admitted. A server under backpressure (session limit reached) closes
	// the connection without sending it, so clients can distinguish
	// rejection from network failure and measure setup latency precisely.
	Welcome struct {
		User uint32
		// Resumed reports that the server adopted handed-off session state
		// for this user (fleet live migration): the QoE history and
		// estimators continue instead of starting cold.
		Resumed bool
		// Shard identifies the fleet shard that admitted the session
		// (0 for a standalone server).
		Shard int
	}

	// PoseUpdate uploads the user's 6-DoF pose for a slot ("Users will
	// replay real users' motion traces and upload the trace to the server
	// through TCP periodically").
	PoseUpdate struct {
		User uint32
		Slot uint32
		Pose vrmath.Pose
	}

	// TileACK acknowledges the tiles fully received in a slot and carries
	// the client-side delay measurement (first-to-last packet duration)
	// plus the byte count the server's EMA throughput estimator consumes.
	TileACK struct {
		User    uint32
		Slot    uint32
		Tiles   []tiles.VideoID
		DelayMs float64
		Bytes   int
		// Covered reports whether the delivered portion covered the actual
		// FoV at display time — the client-observed 1_n(t).
		Covered bool
		// Displayed reports whether the slot's frame was decoded and shown
		// by its deadline (FPS accounting).
		Displayed bool
	}

	// Release tells the server which tiles the client evicted from RAM, so
	// they may be retransmitted later ("the user also sends ACKs to let the
	// server know when the tiles are released").
	Release struct {
		User  uint32
		Tiles []tiles.VideoID
	}

	// Nack reports tiles whose fragments were lost in a slot so the server
	// can retransmit them — the loss-handling extension the paper's
	// Discussion section proposes ("we believe it can be further improved
	// by accounting for such information").
	Nack struct {
		User  uint32
		Slot  uint32
		Tiles []tiles.VideoID
	}
)

// A control frame is a 16-bit big-endian length, then that many bytes: a
// version/type byte and the message's fields at fixed offsets, big-endian,
// floats as IEEE 754 bits, ints as 64-bit two's complement, flags as one
// byte whose unused bits are zero. Hello's address carries a one-byte
// length; a tile list is a 16-bit count and then 64-bit video IDs, and is
// always the frame's last field. The table is in DESIGN.md ("Wire formats").
const (
	// maxControlFrame bounds the bytes after a frame's length field. A
	// longer length is refused before anything is read into it, and Send
	// refuses a message that would need one (a tile list of about 500 IDs;
	// a slot delivers a handful).
	maxControlFrame = 4096

	controlVersion = 1 << 4 // high nibble of the version/type byte

	typeHello      = controlVersion | 1
	typeWelcome    = controlVersion | 2
	typePoseUpdate = controlVersion | 3
	typeTileACK    = controlVersion | 4
	typeRelease    = controlVersion | 5
	typeNack       = controlVersion | 6
)

// Errors of the control codec. Recv wraps them; test with errors.Is.
var (
	errFrameTooLong   = errors.New("transport: control frame longer than MaxControlFrame")
	errBadFrame       = errors.New("transport: malformed control frame")
	errUnknownFrame   = errors.New("transport: unknown control frame version or type")
	errNotAControlMsg = errors.New("transport: not a control message")
)

// Conn is a control-channel connection: length-prefixed binary frames over
// TCP, safe for one concurrent sender and one concurrent receiver.
type Conn struct {
	raw net.Conn
	// rd holds a whole frame, so Recv decodes in place from its buffer.
	rd *bufio.Reader

	sendMu  sync.Mutex
	wbuf    []byte // encode scratch, guarded by sendMu
	pending []byte // whole frames queued for the next write, guarded by sendMu
}

// NewConn wraps an established TCP connection.
func NewConn(raw net.Conn) *Conn {
	return &Conn{raw: raw, rd: bufio.NewReaderSize(raw, 2+maxControlFrame)}
}

// Send writes one control message — a Hello, Welcome, PoseUpdate, TileACK,
// Release or Nack value — behind anything queued, in the same write.
func (c *Conn) Send(msg any) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	err := c.queueLocked(msg)
	if err == nil {
		err = c.flushLocked()
	}
	if err != nil {
		return fmt.Errorf("transport: send control: %w", err)
	}
	return nil
}

// Queue encodes msg behind the frames already queued and writes nothing:
// Flush (or the next Send) hands them to the connection in one write, in
// queueing order. A message that does not encode is refused and leaves the
// queue as it was.
func (c *Conn) Queue(msg any) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if err := c.queueLocked(msg); err != nil {
		return fmt.Errorf("transport: queue control: %w", err)
	}
	return nil
}

// Flush writes the queued frames, if any, as one write. Whatever the write
// reports, the queue is empty afterwards: the stream behind a failed write
// is not one to append to.
func (c *Conn) Flush() error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if err := c.flushLocked(); err != nil {
		return fmt.Errorf("transport: flush control: %w", err)
	}
	return nil
}

// queueLocked encodes into wbuf first because appendFrame sets the length at
// buf[0]: it cannot append to frames already in pending.
func (c *Conn) queueLocked(msg any) error {
	frame, err := appendFrame(c.wbuf[:0], msg)
	c.wbuf = frame[:0]
	if err == nil {
		c.pending = append(c.pending, frame...)
	}
	return err
}

func (c *Conn) flushLocked() error {
	if len(c.pending) == 0 {
		return nil
	}
	_, err := c.raw.Write(c.pending)
	c.pending = c.pending[:0]
	return err
}

// Kind names the message type a Message holds.
type Kind uint8

// The kinds, one per control message type; the zero Kind is none.
const (
	KindHello Kind = iota + 1
	KindWelcome
	KindPoseUpdate
	KindTileACK
	KindRelease
	KindNack
)

// Message is a control message decoded in place by RecvInto: Kind names the
// one field that holds it, and the other fields are left as earlier frames
// set them. A tile list in it is Message-owned scratch, valid until the next
// RecvInto into the same Message, which reuses it; an empty list is nil.
type Message struct {
	Kind    Kind
	Hello   Hello
	Welcome Welcome
	Pose    PoseUpdate
	ACK     TileACK
	Release Release
	Nack    Nack

	ids []tiles.VideoID // the tile-list buffer the fields above alias
}

// Value returns the message Kind names as the value Recv would return.
func (m *Message) Value() any {
	switch m.Kind {
	case KindHello:
		return m.Hello
	case KindWelcome:
		return m.Welcome
	case KindPoseUpdate:
		return m.Pose
	case KindTileACK:
		return m.ACK
	case KindRelease:
		return m.Release
	case KindNack:
		return m.Nack
	}
	return nil
}

// Recv reads the next control message, blocking until one arrives or the
// connection fails. A tile list in the result is the caller's own. A frame
// that does not decode is left unread: the stream has lost its framing and
// every later Recv reports the same error.
func (c *Conn) Recv() (any, error) {
	var m Message // no tile buffer: decoding allocates the list afresh
	if err := c.RecvInto(&m); err != nil {
		return nil, err
	}
	return m.Value(), nil
}

// RecvInto is Recv decoding into m: the same frames, the same errors, and no
// allocation once m's tile buffer has grown to the longest list received.
// On an error m's Kind is zero.
func (c *Conn) RecvInto(m *Message) error {
	if err := c.recvInto(m); err != nil {
		m.Kind = 0
		return fmt.Errorf("transport: recv control: %w", err)
	}
	return nil
}

func (c *Conn) recvInto(m *Message) error {
	head, err := c.rd.Peek(2)
	if err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint16(head))
	if n > maxControlFrame {
		return errFrameTooLong
	}
	frame, err := c.rd.Peek(2 + n)
	if err != nil {
		return err
	}
	if err := decodeInto(m, frame[2:]); err != nil {
		return err
	}
	c.rd.Discard(len(frame)) // cannot fail: the bytes are buffered
	return nil
}

// appendFrame appends msg's frame to buf. It does not retain msg, so a
// caller's message value need not escape to the heap.
func appendFrame(buf []byte, msg any) ([]byte, error) {
	buf = append(buf, 0, 0) // the length, set below
	be := binary.BigEndian
	switch m := msg.(type) {
	case Hello:
		if len(m.UDPAddr) > math.MaxUint8 {
			return buf, errFrameTooLong
		}
		buf = append(buf, typeHello)
		buf = be.AppendUint32(buf, m.User)
		buf = be.AppendUint64(buf, uint64(m.RAMThreshold))
		buf = append(buf, byte(len(m.UDPAddr)))
		buf = append(buf, m.UDPAddr...)
	case Welcome:
		buf = append(buf, typeWelcome)
		buf = be.AppendUint32(buf, m.User)
		buf = append(buf, flags(m.Resumed, false))
		buf = be.AppendUint64(buf, uint64(m.Shard))
	case PoseUpdate:
		buf = append(buf, typePoseUpdate)
		buf = be.AppendUint32(buf, m.User)
		buf = be.AppendUint32(buf, m.Slot)
		for _, f := range [...]float64{m.Pose.Pos.X, m.Pose.Pos.Y, m.Pose.Pos.Z, m.Pose.Yaw, m.Pose.Pitch, m.Pose.Roll} {
			buf = be.AppendUint64(buf, math.Float64bits(f))
		}
	case TileACK:
		buf = append(buf, typeTileACK)
		buf = be.AppendUint32(buf, m.User)
		buf = be.AppendUint32(buf, m.Slot)
		buf = be.AppendUint64(buf, math.Float64bits(m.DelayMs))
		buf = be.AppendUint64(buf, uint64(m.Bytes))
		buf = append(buf, flags(m.Covered, m.Displayed))
		buf = appendTiles(buf, m.Tiles)
	case Release:
		buf = append(buf, typeRelease)
		buf = be.AppendUint32(buf, m.User)
		buf = appendTiles(buf, m.Tiles)
	case Nack:
		buf = append(buf, typeNack)
		buf = be.AppendUint32(buf, m.User)
		buf = be.AppendUint32(buf, m.Slot)
		buf = appendTiles(buf, m.Tiles)
	default:
		return buf, errNotAControlMsg
	}
	n := len(buf) - 2
	if n > maxControlFrame {
		return buf, errFrameTooLong
	}
	be.PutUint16(buf, uint16(n))
	return buf, nil
}

func flags(bit0, bit1 bool) byte {
	var f byte
	if bit0 {
		f |= 1
	}
	if bit1 {
		f |= 2
	}
	return f
}

func appendTiles(buf []byte, ids []tiles.VideoID) []byte {
	if len(ids) > maxControlFrame/8 {
		// No frame holds this list. Cut it to the shortest length that is
		// still too long, so appendFrame refuses it without building it all.
		ids = ids[:maxControlFrame/8+1]
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(ids)))
	for _, id := range ids {
		buf = binary.BigEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

// bodyReader walks a frame body. Reading past its end sets bad and yields
// zeros, so a decoder checks once, at the end, and never indexes out of range.
type bodyReader struct {
	b   []byte
	bad bool
}

// zeroBody is what take yields past the end of a body; no field is longer
// than the 255 bytes a Hello's address may have.
var zeroBody [math.MaxUint8]byte

func (r *bodyReader) take(n int) []byte {
	if len(r.b) < n {
		r.bad, r.b = true, nil
		return zeroBody[:n]
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *bodyReader) u8() byte     { return r.take(1)[0] }
func (r *bodyReader) u16() uint16  { return binary.BigEndian.Uint16(r.take(2)) }
func (r *bodyReader) u32() uint32  { return binary.BigEndian.Uint32(r.take(4)) }
func (r *bodyReader) u64() uint64  { return binary.BigEndian.Uint64(r.take(8)) }
func (r *bodyReader) f64() float64 { return math.Float64frombits(r.u64()) }

// flags reads a flag byte of which only the low `used` bits may be set.
func (r *bodyReader) flags(used uint) (bit0, bit1 bool) {
	f := r.u8()
	if f>>used != 0 {
		r.bad = true
	}
	return f&1 != 0, f&2 != 0
}

// tiles reads a tile list, which must end the body, into buf's storage
// (*buf grows to fit). The count is checked against the bytes present before
// the list is stored. An empty list is nil.
func (r *bodyReader) tiles(buf *[]tiles.VideoID) []tiles.VideoID {
	n := int(r.u16())
	if len(r.b) != 8*n {
		r.bad = true
		return nil
	}
	if n == 0 {
		return nil
	}
	ids := *buf
	if cap(ids) < n {
		ids = make([]tiles.VideoID, n)
	}
	ids = ids[:n]
	for i := range ids {
		ids[i] = tiles.VideoID(r.u64())
	}
	*buf = ids
	return ids
}

// decodeInto parses the bytes after a frame's length field into m. It
// accepts exactly what appendFrame produces: a body that is short, long, or
// sets a bit the layout leaves zero is errBadFrame.
func decodeInto(m *Message, body []byte) error {
	if len(body) == 0 {
		return errBadFrame
	}
	r := bodyReader{b: body[1:]}
	switch body[0] {
	case typeHello:
		m.Kind = KindHello
		m.Hello = Hello{User: r.u32(), RAMThreshold: int(int64(r.u64()))}
		m.Hello.UDPAddr = string(r.take(int(r.u8())))
	case typeWelcome:
		m.Kind = KindWelcome
		m.Welcome = Welcome{User: r.u32()}
		m.Welcome.Resumed, _ = r.flags(1)
		m.Welcome.Shard = int(int64(r.u64()))
	case typePoseUpdate:
		m.Kind = KindPoseUpdate
		p := &m.Pose
		p.User, p.Slot = r.u32(), r.u32()
		p.Pose.Pos.X, p.Pose.Pos.Y, p.Pose.Pos.Z = r.f64(), r.f64(), r.f64()
		p.Pose.Yaw, p.Pose.Pitch, p.Pose.Roll = r.f64(), r.f64(), r.f64()
	case typeTileACK:
		m.Kind = KindTileACK
		a := &m.ACK
		a.User, a.Slot, a.DelayMs, a.Bytes = r.u32(), r.u32(), r.f64(), int(int64(r.u64()))
		a.Covered, a.Displayed = r.flags(2)
		a.Tiles = r.tiles(&m.ids)
	case typeRelease:
		m.Kind = KindRelease
		m.Release.User = r.u32()
		m.Release.Tiles = r.tiles(&m.ids)
	case typeNack:
		m.Kind = KindNack
		m.Nack.User, m.Nack.Slot = r.u32(), r.u32()
		m.Nack.Tiles = r.tiles(&m.ids)
	default:
		return errUnknownFrame
	}
	if r.bad || len(r.b) != 0 {
		return errBadFrame
	}
	return nil
}

// SetDeadline bounds both directions.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

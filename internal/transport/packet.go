// Package transport implements the paper's delivery protocol (Section V):
// an RTP-like datagram framing over UDP for tile payloads — so the sender
// controls its rate precisely and decides per tile whether to retransmit —
// and a TCP side channel for the acknowledgments, release notices and pose
// uploads that RTP cannot carry ("we manually send acknowledgments (ACK)
// from the user to the server through TCP").
//
// Both wire formats are fixed-layout and big-endian: the 40-byte data-packet
// header (Packet, HeaderSize) and the length-prefixed control frame (Conn,
// maxControlFrame). DESIGN.md tabulates them under "Wire formats".
package transport

import (
	"encoding/binary"
	"errors"

	"repro/internal/tiles"
)

// magic identifies packets of this protocol.
const magic uint16 = 0x5652 // "VR"

// HeaderSize is the fixed data-packet header length in bytes. The last
// eight bytes carry the trace ID so the client can stitch its half of a
// request onto the server's; a zero trace ID means "untraced". Bytes 30-31
// carry an additive checksum of the whole datagram, so corrupted packets are
// counted and dropped at Decode rather than poisoning reassembly.
const HeaderSize = 40

// DefaultMTU bounds a whole datagram (header + payload).
const DefaultMTU = 1200

// PacketType discriminates datagram kinds.
type PacketType uint8

const (
	// PacketTile carries one fragment of an encoded tile.
	PacketTile PacketType = iota + 1
)

// Packet is one datagram of the tile stream.
type Packet struct {
	Type      PacketType
	User      uint32 // destination user id
	Slot      uint32 // time slot the tile belongs to
	VideoID   tiles.VideoID
	FragIdx   uint16 // fragment index within the tile
	FragCount uint16 // total fragments of the tile
	Seq       uint32 // per-user monotonically increasing sequence
	Retry     uint8  // retransmission count of this tile (0 = first send)
	Trace     uint64 // trace ID of the tile request; 0 = untraced
	Payload   []byte
}

// Errors returned by Decode and DecodeInto.
var (
	errShortPacket = errors.New("transport: packet shorter than header")
	errBadMagic    = errors.New("transport: bad magic")
	errBadLength   = errors.New("transport: payload length mismatch")
	errBadChecksum = errors.New("transport: checksum mismatch")
)

// checksumBlock is the most bytes checksum sums between folds: 256 words of
// 0xFF put 256*255 = 65280 in a 16-bit lane, the last count that fits.
const checksumBlock = 256 * 8

// checksum is the 16-bit additive checksum carried in header bytes 30-31:
// the sum of every datagram byte with the checksum field taken as zero. It is
// not cryptographic; it exists so in-path corruption (emulated by the chaos
// injectors, or real on a radio link) is counted and dropped at Decode
// instead of feeding garbage tiles into reassembly.
//
// The sum runs four 8-byte words at a time: the words' even bytes are added
// as four 16-bit lanes of one accumulator and their odd bytes as four lanes
// of another, each lane gaining at most 0xFF per word, and both are folded
// into the wide sum every checksumBlock bytes, before a lane could carry into
// its neighbour.
func checksum(data []byte) uint16 {
	const (
		lanes16 = 0x00FF00FF00FF00FF
		lanes32 = 0x0000FFFF0000FFFF
	)
	var sum uint64
	if len(data) > 31 {
		sum -= uint64(data[30]) + uint64(data[31])
	} else if len(data) == 31 {
		sum -= uint64(data[30])
	}
	for len(data) >= 8 {
		block := data
		if len(block) > checksumBlock {
			block = block[:checksumBlock]
		}
		block = block[:len(block)&^7]
		data = data[len(block):]
		var even, odd uint64
		for ; len(block) >= 32; block = block[32:] {
			w0 := binary.LittleEndian.Uint64(block)
			w1 := binary.LittleEndian.Uint64(block[8:])
			w2 := binary.LittleEndian.Uint64(block[16:])
			w3 := binary.LittleEndian.Uint64(block[24:])
			even += w0&lanes16 + w1&lanes16 + w2&lanes16 + w3&lanes16
			odd += (w0>>8)&lanes16 + (w1>>8)&lanes16 + (w2>>8)&lanes16 + (w3>>8)&lanes16
		}
		for ; len(block) >= 8; block = block[8:] {
			w := binary.LittleEndian.Uint64(block)
			even += w & lanes16
			odd += (w >> 8) & lanes16
		}
		acc := even&lanes32 + (even>>16)&lanes32 + odd&lanes32 + (odd>>16)&lanes32
		sum += acc&0xFFFFFFFF + acc>>32
	}
	for _, b := range data {
		sum += uint64(b)
	}
	return uint16(sum)
}

// Encode serializes the packet into buf (allocating if nil or too small)
// and returns the encoded bytes.
func (p *Packet) Encode(buf []byte) []byte {
	n := HeaderSize + len(p.Payload)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	binary.BigEndian.PutUint16(buf[0:2], magic)
	buf[2] = byte(p.Type)
	buf[3] = p.Retry
	binary.BigEndian.PutUint32(buf[4:8], p.User)
	binary.BigEndian.PutUint32(buf[8:12], p.Slot)
	binary.BigEndian.PutUint64(buf[12:20], uint64(p.VideoID))
	binary.BigEndian.PutUint16(buf[20:22], p.FragIdx)
	binary.BigEndian.PutUint16(buf[22:24], p.FragCount)
	binary.BigEndian.PutUint16(buf[24:26], uint16(len(p.Payload)))
	binary.BigEndian.PutUint32(buf[26:30], p.Seq)
	binary.BigEndian.PutUint64(buf[32:40], p.Trace)
	copy(buf[HeaderSize:], p.Payload)
	binary.BigEndian.PutUint16(buf[30:32], checksum(buf))
	return buf
}

// Decode parses a datagram into a new Packet; see DecodeInto.
func Decode(data []byte) (*Packet, error) {
	p := new(Packet)
	if err := DecodeInto(p, data); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto parses a datagram into the caller's packet, so a receive loop
// decodes every datagram into one Packet. p.Payload aliases data. The errors
// are the bare sentinels: the receive pump sees one per corrupted datagram
// and only counts them.
func DecodeInto(p *Packet, data []byte) error {
	if len(data) < HeaderSize {
		return errShortPacket
	}
	if binary.BigEndian.Uint16(data[0:2]) != magic {
		return errBadMagic
	}
	if len(data) != HeaderSize+int(binary.BigEndian.Uint16(data[24:26])) {
		return errBadLength
	}
	if binary.BigEndian.Uint16(data[30:32]) != checksum(data) {
		return errBadChecksum
	}
	*p = Packet{
		Type:      PacketType(data[2]),
		User:      binary.BigEndian.Uint32(data[4:8]),
		Slot:      binary.BigEndian.Uint32(data[8:12]),
		VideoID:   tiles.VideoID(binary.BigEndian.Uint64(data[12:20])),
		FragIdx:   binary.BigEndian.Uint16(data[20:22]),
		FragCount: binary.BigEndian.Uint16(data[22:24]),
		Seq:       binary.BigEndian.Uint32(data[26:30]),
		Retry:     data[3],
		Trace:     binary.BigEndian.Uint64(data[32:40]),
		Payload:   data[HeaderSize:],
	}
	return nil
}

// Fragment splits a tile payload into MTU-sized packets. seq is the first
// sequence number to use; the caller advances its counter by the returned
// count.
func Fragment(user, slot uint32, id tiles.VideoID, payload []byte, mtu int, seq uint32) []*Packet {
	if mtu <= HeaderSize {
		mtu = DefaultMTU
	}
	chunk := mtu - HeaderSize
	count := (len(payload) + chunk - 1) / chunk
	if count == 0 {
		count = 1 // zero-length tile still needs one packet
	}
	if count > 0xFFFF {
		count = 0xFFFF // oversized tiles are truncated defensively
	}
	packets := make([]*Packet, 0, count)
	for i := 0; i < count; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > len(payload) {
			hi = len(payload)
		}
		packets = append(packets, &Packet{
			Type:      PacketTile,
			User:      user,
			Slot:      slot,
			VideoID:   id,
			FragIdx:   uint16(i),
			FragCount: uint16(count),
			Seq:       seq + uint32(i),
			Payload:   payload[lo:hi],
		})
	}
	return packets
}

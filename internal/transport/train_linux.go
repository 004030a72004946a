package transport

import (
	"encoding/binary"
	"errors"
	"syscall"
	"unsafe"
)

// udpSegment is UDP_SEGMENT from <linux/udp.h> (package syscall does not
// carry it): as a control message on a send, the length at which the kernel
// cuts the write into datagrams.
const udpSegment = 103

// enableTrains lets this sender's trains grow past one record and builds
// the control message that carries their segment size.
func (s *Sender) enableTrains() {
	s.oob = make([]byte, syscall.CmsgSpace(2))
	// The one cast: cmsghdr's length field is as wide as the platform's
	// size_t, which syscall.Cmsghdr knows and a hand-written layout would not.
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&s.oob[0]))
	h.Level = syscall.IPPROTO_UDP
	h.Type = udpSegment
	h.SetLen(syscall.CmsgLen(2))
	s.maxSegs = trainSegs
	s.segWrite = s.writeSegmented
}

// writeSegmented hands the kernel a whole train as one write; the receiver
// sees ordinary datagrams. UDP queues all of a write or none of it.
func (s *Sender) writeSegmented(train []byte, segSize int) error {
	binary.NativeEndian.PutUint16(s.oob[syscall.CmsgLen(0):], uint16(segSize))
	_, _, err := s.udp.WriteMsgUDPAddrPort(train, s.oob, s.dstAP)
	return err
}

// segmentRefused reports whether a segmented write failed because this
// socket or path cannot take one at all: no checksum offload on the route's
// device (EIO), a segment size over the path MTU or a kernel that caps trains
// lower (EINVAL), or a kernel without UDP_SEGMENT (ENOPROTOOPT on the
// option's level, EINVAL on older ones).
func segmentRefused(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.EIO) || errors.Is(err, syscall.ENOPROTOOPT)
}

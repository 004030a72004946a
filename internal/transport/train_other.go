//go:build !linux

package transport

// enableTrains does nothing where there is no UDP_SEGMENT: a train stays
// one datagram and every datagram one write.
func (s *Sender) enableTrains() {}

// segmentRefused is never asked: without enableTrains no train reaches two
// records.
func segmentRefused(error) bool { return true }

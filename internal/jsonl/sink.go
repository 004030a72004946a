package jsonl

import (
	"encoding/json"
	"io"
	"sync"
)

// Ring holds the most recent values pushed into it, up to a fixed capacity.
// It is not synchronised; Sink adds the lock.
type Ring[T any] struct {
	buf  []T
	next int // index the next Push writes
	n    int // values held, at most len(buf)
}

// NewRing returns an empty ring of capacity size (at least 1).
func NewRing[T any](size int) Ring[T] { return Ring[T]{buf: make([]T, max(size, 1))} }

// Push stores v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Push(v T) {
	r.buf[r.next] = v
	if r.next++; r.next == len(r.buf) {
		r.next = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
}

// Len returns how many values the ring holds.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th held value, oldest first (0 <= i < Len).
func (r *Ring[T]) At(i int) T {
	if i += r.next - r.n; i < 0 {
		i += len(r.buf)
	}
	return r.buf[i]
}

// last returns a copy of the n most recent values, oldest first: nil for
// n <= 0, and all of them (possibly none) when n exceeds Len.
func (r *Ring[T]) last(n int) []T {
	if n <= 0 {
		return nil
	}
	n = min(n, r.n)
	out := make([]T, n)
	for i := range out {
		out[i] = r.At(r.n - n + i)
	}
	return out
}

// QueueSize bounds an asynchronous Sink's writer queue: a record that finds
// it full is dropped from the JSONL stream rather than blocking Put. At a
// live server's span rate it holds well over a second of writer stall.
const QueueSize = 1 << 16

// SinkOptions configures a Sink.
type SinkOptions struct {
	// RingSize bounds the in-memory ring of the most recent records
	// (default 256).
	RingSize int
	// Writer, when non-nil, receives every record as one JSON line.
	Writer io.Writer
	// Sync writes each record under the sink's lock, in Put order, instead
	// of through a QueueSize queue drained by a background goroutine.
	// Deterministic engines use it: the output is stable and nothing drops.
	Sync bool
}

// Sink is the concurrency-safe record sink behind the flight recorder, the
// placement recorder and the span exporter: every record enters a Ring,
// and with a Writer it is also written as one JSON line. A nil *Sink is
// inert: Put is a no-op and every accessor reports zero.
//
// Two counts say what a reader missed. Evicted records fell out of the
// ring (a JSONL writer still saw them). Dropped records found the
// asynchronous writer queue full (the ring still saw them).
type Sink[T any] struct {
	mu      sync.Mutex
	ring    Ring[T]
	records uint64
	dropped uint64
	closed  bool
	enc     *json.Encoder
	queue   chan T // nil for a Sync sink, and after Close

	wmu     sync.Mutex // serialises enc and guards err
	err     error      // first write error
	drained sync.WaitGroup
}

// NewSink builds a sink; a non-Sync sink with a Writer starts the goroutine
// that drains its queue, which Close stops.
func NewSink[T any](opts SinkOptions) *Sink[T] {
	if opts.RingSize <= 0 {
		opts.RingSize = 256
	}
	s := &Sink[T]{ring: NewRing[T](opts.RingSize)}
	if opts.Writer != nil {
		s.enc = json.NewEncoder(opts.Writer)
		if !opts.Sync {
			s.queue = make(chan T, QueueSize)
			s.drained.Add(1)
			go s.drain(s.queue)
		}
	}
	return s
}

// Put ingests one record (copied; the caller may reuse rec, but not the
// slices it points to, which the ring aliases).
func (s *Sink[T]) Put(rec *T) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.records++
	s.ring.Push(*rec)
	switch {
	case s.closed || s.enc == nil:
	case s.queue == nil:
		s.write(rec)
	default:
		select {
		case s.queue <- *rec:
		default:
			s.dropped++
		}
	}
	s.mu.Unlock()
}

func (s *Sink[T]) write(rec *T) {
	s.wmu.Lock()
	if s.err == nil {
		s.err = s.enc.Encode(rec)
	}
	s.wmu.Unlock()
}

// drain writes queued records off the Put path. The queue is passed in
// because Close clears s.queue before closing it.
func (s *Sink[T]) drain(queue <-chan T) {
	defer s.drained.Done()
	for rec := range queue {
		s.write(&rec)
	}
}

// Close flushes the writer queue, stops its goroutine and returns the first
// write error. Records Put after Close still enter the ring but are no
// longer written, in either mode.
func (s *Sink[T]) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	queue := s.queue
	s.queue, s.closed = nil, true
	s.mu.Unlock()
	if queue != nil {
		close(queue)
		s.drained.Wait()
	}
	return s.Err()
}

// Err returns the first JSONL write error, if any.
func (s *Sink[T]) Err() error {
	if s == nil {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.err
}

// Records returns how many records were Put.
func (s *Sink[T]) Records() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Evicted returns how many records have fallen out of the ring.
func (s *Sink[T]) Evicted() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records - uint64(s.ring.Len())
}

// Dropped returns how many records the writer queue rejected (always 0
// for a Sync sink or one without a Writer).
func (s *Sink[T]) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Cap returns the ring's capacity (0 for a nil sink).
func (s *Sink[T]) Cap() int {
	if s == nil {
		return 0
	}
	return len(s.ring.buf)
}

// Recent returns up to n of the most recent records, oldest first (nil for
// a nil sink or n <= 0).
func (s *Sink[T]) Recent(n int) []T {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.last(n)
}

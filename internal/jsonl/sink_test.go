package jsonl

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

type item struct {
	N int `json:"n"`
}

// lockedBuffer is a writer a test can stall by holding mu.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func decodeItems(t *testing.T, s string) []item {
	t.Helper()
	got, skipped, err := Decode[item](strings.NewReader(s), nil)
	if err != nil || skipped != 0 {
		t.Fatalf("written stream: err=%v skipped=%d", err, skipped)
	}
	return got
}

// TestSinkRing fills rings of several sizes below, at and past capacity:
// Recent and Ring.At read oldest first, the ring keeps the newest records,
// Evicted counts the rest, and the writer sees every record.
func TestSinkRing(t *testing.T) {
	for _, size := range []int{1, 4, 7} {
		for _, puts := range []int{size - 1, size, size + 1, 3*size + 2} {
			var buf bytes.Buffer
			s := NewSink[item](SinkOptions{RingSize: size, Writer: &buf, Sync: true})
			r := NewRing[item](size)
			for i := 0; i < puts; i++ {
				s.Put(&item{N: i})
				r.Push(item{N: i})
			}
			held := min(puts, size)
			got := s.Recent(puts + 1)
			if len(got) != held || r.Len() != held {
				t.Fatalf("size %d, %d puts: Recent holds %d, Ring.Len %d, want %d", size, puts, len(got), r.Len(), held)
			}
			for i, rec := range got {
				if want := puts - held + i; rec.N != want || r.At(i).N != want {
					t.Errorf("size %d, %d puts: [%d] = %d (Ring.At %d), want %d", size, puts, i, rec.N, r.At(i).N, want)
				}
			}
			if held > 0 {
				if last := s.Recent(1); len(last) != 1 || last[0].N != puts-1 {
					t.Errorf("size %d, %d puts: Recent(1) = %v", size, puts, last)
				}
			}
			if s.Recent(0) != nil {
				t.Errorf("size %d: Recent(0) not nil", size)
			}
			if s.Records() != uint64(puts) || s.Evicted() != uint64(puts-held) || s.Dropped() != 0 || s.Cap() != size {
				t.Errorf("size %d, %d puts: records %d evicted %d dropped %d cap %d",
					size, puts, s.Records(), s.Evicted(), s.Dropped(), s.Cap())
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if n := len(decodeItems(t, buf.String())); n != puts {
				t.Errorf("size %d, %d puts: wrote %d lines", size, puts, n)
			}
		}
	}
}

// TestSinkEvictedAndDroppedAreSeparate stalls the writer so the queue
// overflows: Dropped counts what the queue turned away, Evicted what the
// ring let go, and everything not dropped is written once Close flushes.
func TestSinkEvictedAndDroppedAreSeparate(t *testing.T) {
	w := &lockedBuffer{}
	w.mu.Lock()
	s := NewSink[item](SinkOptions{RingSize: 4, Writer: w})
	const puts = QueueSize + 10
	for i := 0; i < puts; i++ {
		s.Put(&item{N: i})
	}
	// The drain goroutine may hold one record in its stalled write.
	if d := s.Dropped(); d < 9 || d > 10 {
		t.Errorf("dropped %d, want 9 or 10", d)
	}
	if e := s.Evicted(); e != puts-4 {
		t.Errorf("evicted %d, want %d", e, puts-4)
	}
	w.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := uint64(len(decodeItems(t, w.buf.String()))); n != puts-s.Dropped() {
		t.Errorf("wrote %d lines, want %d", n, puts-s.Dropped())
	}
}

func TestNilSinkIsInert(t *testing.T) {
	var s *Sink[item]
	s.Put(&item{N: 1})
	if s.Close() != nil || s.Err() != nil || s.Records() != 0 || s.Evicted() != 0 ||
		s.Dropped() != 0 || s.Cap() != 0 || s.Recent(4) != nil {
		t.Fatal("nil sink not inert")
	}
}

func TestPutWithoutWriterDoesNotAllocate(t *testing.T) {
	s := NewSink[item](SinkOptions{RingSize: 4})
	rec := item{N: 1}
	if allocs := testing.AllocsPerRun(1000, func() { s.Put(&rec) }); allocs != 0 {
		t.Fatalf("Put allocates %.1f/op, want 0", allocs)
	}
}

// TestSinkConcurrentPutRecentClose runs writers, a reader and Close at once
// (meant for -race): no record is lost from the count, and what reached the
// writer is whole lines.
func TestSinkConcurrentPutRecentClose(t *testing.T) {
	for _, syncWrite := range []bool{true, false} {
		w := &lockedBuffer{}
		s := NewSink[item](SinkOptions{RingSize: 7, Writer: w, Sync: syncWrite})
		const writers, each = 4, 500
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					s.Put(&item{N: g*each + i})
				}
			}(g)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if got := s.Recent(7); len(got) > 7 {
					t.Errorf("Recent(7) returned %d", len(got))
				}
			}
		}()
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if s.Records() != writers*each {
			t.Errorf("sync %v: records %d, want %d", syncWrite, s.Records(), writers*each)
		}
		w.mu.Lock()
		written := len(decodeItems(t, w.buf.String()))
		w.mu.Unlock()
		if written > writers*each {
			t.Errorf("sync %v: wrote %d lines for %d records", syncWrite, written, writers*each)
		}
	}
}

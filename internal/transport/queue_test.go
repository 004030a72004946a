package transport

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"testing"

	"repro/internal/tiles"
)

// writeLog is a net.Conn that keeps each Write apart.
type writeLog struct {
	net.Conn // nil: only Write is reached
	writes   [][]byte
}

func (w *writeLog) Write(b []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), b...))
	return len(b), nil
}

// Queue x k then Flush puts on the wire, as one write, exactly the bytes k
// Sends put there as k writes — over the whole golden corpus, so every
// frame type and the maximal frames ride in one batch.
func TestControlQueueFlushIsConcatenatedSends(t *testing.T) {
	var sent, queued writeLog
	a, b := NewConn(&sent), NewConn(&queued)
	for _, g := range goldenMessages() {
		if err := a.Send(g.msg); err != nil {
			t.Fatalf("%s: send: %v", g.name, err)
		}
		if err := b.Queue(g.msg); err != nil {
			t.Fatalf("%s: queue: %v", g.name, err)
		}
	}
	if len(queued.writes) != 0 {
		t.Fatalf("Queue wrote %d times before Flush", len(queued.writes))
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(sent.writes) != len(goldenMessages()) || len(queued.writes) != 1 {
		t.Fatalf("%d sends made %d writes, their queueing %d; want one each and one",
			len(goldenMessages()), len(sent.writes), len(queued.writes))
	}
	if want := bytes.Join(sent.writes, nil); !bytes.Equal(queued.writes[0], want) {
		t.Fatalf("flushed %d bytes differ from the %d the sends wrote", len(queued.writes[0]), len(want))
	}
	if err := b.Flush(); err != nil || len(queued.writes) != 1 {
		t.Fatalf("empty Flush: err %v, %d writes; want a no-op", err, len(queued.writes))
	}
}

// A message that does not encode is refused where it is queued and costs
// the batch nothing: its neighbours arrive, in order, and Send keeps its
// place behind what was queued before it.
func TestControlQueueRefusalLeavesBatchIntact(t *testing.T) {
	a, b := controlPipe(t)
	pose := PoseUpdate{User: 7, Slot: 1}
	ack := TileACK{User: 7, Slot: 0, Tiles: []tiles.VideoID{77}, Displayed: true}
	nack := Nack{User: 7, Slot: 1, Tiles: []tiles.VideoID{78}}
	errc := make(chan error, 1)
	go func() {
		if err := a.Queue(pose); err != nil {
			errc <- err
			return
		}
		tooLong := Release{Tiles: make([]tiles.VideoID, maxControlFrame)}
		if err := a.Queue(tooLong); !errors.Is(err, errFrameTooLong) {
			errc <- errors.New("oversized Release was queued")
			return
		}
		if err := a.Queue("pose"); err == nil {
			errc <- errors.New("a string was queued")
			return
		}
		if err := a.Queue(ack); err != nil {
			errc <- err
			return
		}
		errc <- a.Send(nack) // flushes pose and ack ahead of itself
	}()
	for _, want := range []any{pose, ack, nack} {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("received %#v, want %#v", got, want)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

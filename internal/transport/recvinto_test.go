package transport

import (
	"net"
	"slices"
	"testing"

	"repro/internal/tiles"
	"repro/internal/vrmath"
)

// decodeBody parses the bytes after a frame's length field into the value
// Recv would return.
func decodeBody(body []byte) (any, error) {
	var m Message
	if err := decodeInto(&m, body); err != nil {
		return nil, err
	}
	return m.Value(), nil
}

// typedAfterLongest returns a connection that delivers a frame carrying the
// longest tile list a frame holds and then data, with a Message that has
// already received the first frame.
func typedAfterLongest(t *testing.T, data []byte) (*Conn, *Message) {
	t.Helper()
	longest, err := appendFrame(nil, Nack{User: 1, Slot: 2, Tiles: maxTiles(4 + 4)})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := net.Pipe()
	t.Cleanup(func() { rb.Close() })
	go func() {
		ra.Write(append(longest, data...))
		ra.Close()
	}()
	c := NewConn(rb)
	var m Message
	if err := c.RecvInto(&m); err != nil || m.Kind != KindNack || len(m.Nack.Tiles) != len(maxTiles(4+4)) {
		t.Fatalf("longest list: kind %d, %d tiles, %v", m.Kind, len(m.Nack.Tiles), err)
	}
	return c, &m
}

// TestRecvIntoAllocs: once a Message's tile buffer has grown, a typed
// receive of the two per-slot messages a server reads allocates nothing,
// sender included.
func TestRecvIntoAllocs(t *testing.T) {
	const runs = 200
	pose := PoseUpdate{User: 9, Slot: 4, Pose: vrmath.Pose{Pos: vrmath.Vec3{X: 1, Y: 2, Z: 3}, Yaw: 4, Pitch: 5, Roll: 6}}
	ack := TileACK{User: 9, Slot: 4, Tiles: []tiles.VideoID{1, 2, 3, 4, 5, 6, 7, 8}, DelayMs: 2.5, Bytes: 40960, Covered: true}
	for _, tc := range []struct {
		name string
		msg  any
		ok   func(m *Message) bool
	}{
		{"PoseUpdate", pose, func(m *Message) bool { return m.Kind == KindPoseUpdate && m.Pose == pose }},
		{"TileACK", ack, func(m *Message) bool {
			got := m.ACK
			return m.Kind == KindTileACK && slices.Equal(got.Tiles, ack.Tiles) &&
				got.User == ack.User && got.Slot == ack.Slot && got.DelayMs == ack.DelayMs &&
				got.Bytes == ack.Bytes && got.Covered == ack.Covered && got.Displayed == ack.Displayed
		}},
	} {
		a, b := controlPipe(t)
		go func() {
			for range runs + 1 { // AllocsPerRun calls once more to warm up
				if a.Send(tc.msg) != nil {
					return
				}
			}
		}()
		var m Message
		allocs := testing.AllocsPerRun(runs, func() {
			if err := b.RecvInto(&m); err != nil || !tc.ok(&m) {
				t.Fatalf("%s: got %#v, %v", tc.name, m.Value(), err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s Send+RecvInto = %.2f allocs, want 0", tc.name, allocs)
		}
	}
}

// TestRecvIntoErrorClearsKind: a frame that does not decode leaves no kind
// behind for a caller that ignores the error.
func TestRecvIntoErrorClearsKind(t *testing.T) {
	typed, m := typedAfterLongest(t, []byte{0, 1, 0x7F})
	if err := typed.RecvInto(m); err == nil || m.Kind != 0 {
		t.Fatalf("unknown frame: kind %d, err %v", m.Kind, err)
	}
}

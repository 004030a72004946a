package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tiles"
	"repro/internal/vrmath"
)

// The golden corpus pins the control wire format: one frame per line,
// "name hex". Regenerate after a deliberate format change (and bump
// controlVersion) with
//
//	go test ./internal/transport -run TestGoldenControlFrames -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_control.txt from the current encoder")

const goldenControlPath = "testdata/golden_control.txt"

// maxTiles returns the longest tile list that fits a frame whose other
// fields take fixed bytes after the version/type byte.
func maxTiles(fixed int) []tiles.VideoID {
	ids := make([]tiles.VideoID, (maxControlFrame-1-fixed-2)/8)
	for i := range ids {
		ids[i] = tiles.VideoID(0x0102030405060708 + uint64(i))
	}
	return ids
}

// goldenMessages is the corpus: every message type, tile lists empty,
// short and as long as a frame allows, and the extreme field values.
func goldenMessages() []struct {
	name string
	msg  any
} {
	pose := vrmath.Pose{Pos: vrmath.Vec3{X: 1.5, Y: -2.25, Z: 1e-3}, Yaw: -179.5, Pitch: 89, Roll: 0.125}
	return []struct {
		name string
		msg  any
	}{
		{"hello", Hello{User: 7, UDPAddr: "127.0.0.1:40123", RAMThreshold: 512}},
		{"hello-empty-addr", Hello{}},
		{"hello-longest-addr", Hello{User: math.MaxUint32, UDPAddr: strings.Repeat("a", 255), RAMThreshold: -1}},
		{"welcome", Welcome{User: 7}},
		{"welcome-resumed", Welcome{User: 7, Resumed: true, Shard: 3}},
		{"pose", PoseUpdate{User: 7, Slot: 600, Pose: pose}},
		{"pose-zero", PoseUpdate{}},
		{"ack", TileACK{User: 7, Slot: 600, Tiles: []tiles.VideoID{77, 78}, DelayMs: 3.5, Bytes: 20480, Covered: true, Displayed: true}},
		{"ack-empty", TileACK{User: 7, Slot: 601, Displayed: true}},
		{"ack-maximal", TileACK{User: 7, Slot: 602, Tiles: maxTiles(4 + 4 + 8 + 8 + 1), DelayMs: math.Inf(1), Bytes: math.MinInt64, Covered: true}},
		{"release", Release{User: 7, Tiles: []tiles.VideoID{1, math.MaxUint64}}},
		{"release-empty", Release{User: 7}},
		{"release-maximal", Release{User: 7, Tiles: maxTiles(4)}},
		{"nack", Nack{User: 7, Slot: 600, Tiles: []tiles.VideoID{77}}},
		{"nack-empty", Nack{User: 7, Slot: 600}},
		{"nack-maximal", Nack{User: 7, Slot: 600, Tiles: maxTiles(4 + 4)}},
	}
}

func TestGoldenControlFrames(t *testing.T) {
	var want bytes.Buffer
	frames := map[string][]byte{}
	for _, g := range goldenMessages() {
		frame, err := appendFrame(nil, g.msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		frames[g.name] = frame
		fmt.Fprintf(&want, "%s %s\n", g.name, hex.EncodeToString(frame))
	}
	if *updateGolden {
		if err := os.WriteFile(goldenControlPath, want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenControlPath)
	if err != nil {
		t.Fatalf("read golden corpus (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(golden, want.Bytes()) {
		t.Fatalf("control frames differ from %s: the wire format changed; if deliberate, "+
			"bump controlVersion and regenerate with -update-golden", goldenControlPath)
	}

	// The checked-in bytes, not just today's encoder, must decode to the
	// messages.
	for i, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		g := goldenMessages()[i]
		name, hexFrame, _ := strings.Cut(line, " ")
		frame, err := hex.DecodeString(hexFrame)
		if err != nil || name != g.name {
			t.Fatalf("golden line %d: name %q, hex error %v", i+1, name, err)
		}
		if n := int(binary.BigEndian.Uint16(frame)); n != len(frame)-2 || n > maxControlFrame {
			t.Errorf("%s: length field %d, frame body %d, limit %d", name, n, len(frame)-2, maxControlFrame)
		}
		got, err := decodeBody(frame[2:])
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, g.msg) {
			t.Errorf("%s: decoded %#v, want %#v", name, got, g.msg)
		}
	}
	if got := len(frames["ack-maximal"]) - 2; got <= maxControlFrame-8 {
		t.Errorf("ack-maximal is %d bytes: one more ID would fit under %d", got, maxControlFrame)
	}
}

// Property: every message type survives Send and Recv over a connection
// with every field bit-exact (an empty tile list comes back nil).
func TestControlRoundTripProperty(t *testing.T) {
	a, b := controlPipe(t)
	roundTrip := func(msg any) bool {
		errCh := make(chan error, 1)
		go func() { errCh <- a.Send(msg) }()
		got, err := b.Recv()
		if serr := <-errCh; serr != nil || err != nil {
			t.Logf("send: %v, recv: %v", serr, err)
			return false
		}
		return reflect.DeepEqual(got, msg)
	}
	ids := func(raw []uint64) []tiles.VideoID {
		if len(raw) == 0 {
			return nil
		}
		out := make([]tiles.VideoID, len(raw)%500)
		for i := range out {
			out[i] = tiles.VideoID(raw[i])
		}
		if len(out) == 0 {
			return nil
		}
		return out
	}
	checks := map[string]any{
		"Hello": func(user uint32, addr string, ram int) bool {
			if len(addr) > 255 {
				addr = addr[:255]
			}
			return roundTrip(Hello{User: user, UDPAddr: addr, RAMThreshold: ram})
		},
		"Welcome": func(user uint32, resumed bool, shard int) bool {
			return roundTrip(Welcome{User: user, Resumed: resumed, Shard: shard})
		},
		"PoseUpdate": func(user, slot uint32, x, y, z, yaw, pitch, roll float64) bool {
			return roundTrip(PoseUpdate{User: user, Slot: slot, Pose: vrmath.Pose{
				Pos: vrmath.Vec3{X: x, Y: y, Z: z}, Yaw: yaw, Pitch: pitch, Roll: roll}})
		},
		"TileACK": func(user, slot uint32, raw []uint64, delay float64, n int, covered, displayed bool) bool {
			return roundTrip(TileACK{User: user, Slot: slot, Tiles: ids(raw), DelayMs: delay,
				Bytes: n, Covered: covered, Displayed: displayed})
		},
		"Release": func(user uint32, raw []uint64) bool {
			return roundTrip(Release{User: user, Tiles: ids(raw)})
		},
		"Nack": func(user, slot uint32, raw []uint64) bool {
			return roundTrip(Nack{User: user, Slot: slot, Tiles: ids(raw)})
		},
	}
	for name, f := range checks {
		if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(17))}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// controlPipe returns the two ends of an in-memory control connection.
func controlPipe(t testing.TB) (*Conn, *Conn) {
	t.Helper()
	ra, rb := net.Pipe()
	a, b := NewConn(ra), NewConn(rb)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestControlSendRefusals(t *testing.T) {
	a, _ := controlPipe(t)
	tooMany := make([]tiles.VideoID, maxControlFrame) // eight times what fits
	for name, msg := range map[string]any{
		"ack":     TileACK{Tiles: tooMany},
		"release": Release{Tiles: append(maxTiles(4), 1)},
		"nack":    Nack{Tiles: tooMany},
		"addr":    Hello{UDPAddr: strings.Repeat("a", 256)},
	} {
		if err := a.Send(msg); !errors.Is(err, errFrameTooLong) {
			t.Errorf("%s: got %v, want ErrFrameTooLong", name, err)
		}
	}
	for name, msg := range map[string]any{"pointer": &PoseUpdate{}, "nil": nil, "string": "pose"} {
		if err := a.Send(msg); err == nil {
			t.Errorf("%s: sent something that is not a control message", name)
		}
	}
}

func TestControlRecvRejectsMalformed(t *testing.T) {
	frame := func(msg any) []byte {
		f, err := appendFrame(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	relen := func(f []byte) []byte {
		binary.BigEndian.PutUint16(f, uint16(len(f)-2))
		return f
	}
	pose := frame(PoseUpdate{User: 1})
	ack := frame(TileACK{User: 1, Tiles: []tiles.VideoID{5, 6}})
	hello := frame(Hello{User: 1, UDPAddr: "127.0.0.1:1"})

	wrongVersion := append([]byte(nil), pose...)
	wrongVersion[2] = 2<<4 | typePoseUpdate&0x0F
	unknownType := append([]byte(nil), pose...)
	unknownType[2] = controlVersion | 9
	spareFlag := append([]byte(nil), ack...)
	spareFlag[2+1+4+4+8+8] |= 0x80
	countOverBody := append([]byte(nil), ack...)
	binary.BigEndian.PutUint16(countOverBody[len(ack)-16-2:], 3)
	addrOverBody := append([]byte(nil), hello...)
	addrOverBody[2+1+4+8] = 200

	cases := []struct {
		name  string
		bytes []byte
		want  error
	}{
		{"empty body", []byte{0, 0}, errBadFrame},
		{"wrong version", wrongVersion, errUnknownFrame},
		{"unknown type", unknownType, errUnknownFrame},
		{"short body", relen(append([]byte(nil), pose[:len(pose)-1]...)), errBadFrame},
		{"long body", relen(append(append([]byte(nil), pose...), 0)), errBadFrame},
		{"spare flag bit set", spareFlag, errBadFrame},
		{"tile count over body", countOverBody, errBadFrame},
		{"address length over body", addrOverBody, errBadFrame},
		{"length over limit", []byte{0xFF, 0xFF, typePoseUpdate}, errFrameTooLong},
		{"length just over limit", binary.BigEndian.AppendUint16(nil, maxControlFrame+1), errFrameTooLong},
	}
	for _, tc := range cases {
		a, b := controlPipe(t)
		go func() { a.raw.Write(tc.bytes); a.Close() }()
		if msg, err := b.Recv(); !errors.Is(err, tc.want) {
			t.Errorf("%s: got (%#v, %v), want %v", tc.name, msg, err, tc.want)
		}
	}

	// A frame cut off by the peer closing is an error too, not a hang.
	a, b := controlPipe(t)
	go func() { a.raw.Write(pose[:10]); a.Close() }()
	if msg, err := b.Recv(); err == nil {
		t.Errorf("truncated stream: got %#v", msg)
	}
}

// An oversize length prefix must be refused from the two bytes alone: no
// frame-sized buffer, no waiting for bytes that will never come.
func TestControlOversizeLengthAllocatesNothing(t *testing.T) {
	a, b := controlPipe(t)
	go a.raw.Write([]byte{0xFF, 0xFF})
	if _, err := b.Recv(); !errors.Is(err, errFrameTooLong) {
		t.Fatalf("got %v, want ErrFrameTooLong", err)
	}
	// The prefix stays unread, so every further Recv takes the same path.
	// Each refusal builds one wrapped error; a 64 KiB buffer each would be
	// the regression.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		b.Recv()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / 100; perCall > 256 {
		t.Errorf("refusing an oversize frame allocated %d bytes per call", perCall)
	}
}

// FuzzControlFrame feeds arbitrary bytes to Recv over a connection: the
// outcome is an error, or a message whose encoding is exactly the bytes
// consumed. It must never panic, and never allocate what an oversize length
// prefix asks for (maxControlFrame bounds the read buffer, fixed at NewConn).
// RecvInto must agree with Recv on every frame and every error.
func FuzzControlFrame(f *testing.F) {
	for _, g := range goldenMessages() {
		if frame, err := appendFrame(nil, g.msg); err == nil && len(frame) < 200 {
			f.Add(frame)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, typeTileACK})                                 // oversize length
	f.Add([]byte{0, 1, typeHello})                                         // body cut short
	f.Add([]byte{0, 1, 0x7F})                                              // unknown version and type
	f.Add([]byte{0, 7, typeRelease, 0, 0, 0, 1, 0xFF, 0xFF})               // list count with no list
	f.Add([]byte{0, 14, typeHello, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 9}) // address length with no address

	f.Fuzz(func(t *testing.T, data []byte) {
		ra, rb := net.Pipe()
		defer rb.Close()
		go func() {
			ra.Write(data)
			ra.Close()
		}()
		c := NewConn(rb)
		// The typed receive reads the same bytes into one Message, after a
		// frame with the longest tile list has filled its buffer: a shorter
		// list that kept a stale ID would differ from what Recv returns.
		typed, m := typedAfterLongest(t, data)
		rest := data
		for {
			msg, err := c.Recv()
			terr := typed.RecvInto(m)
			if (err == nil) != (terr == nil) || err != nil && err.Error() != terr.Error() {
				t.Fatalf("Recv error %v, RecvInto error %v", err, terr)
			}
			if err != nil {
				return
			}
			again, err := appendFrame(nil, msg)
			if err != nil {
				t.Fatalf("received %#v, which does not encode: %v", msg, err)
			}
			// Compared as encodings, which hold a NaN's bits as they are.
			if typed, err := appendFrame(nil, m.Value()); err != nil || !bytes.Equal(typed, again) {
				t.Fatalf("RecvInto decoded %#v, Recv %#v", m.Value(), msg)
			}
			if len(again) > len(rest) || !bytes.Equal(again, rest[:len(again)]) {
				t.Fatalf("received %#v from % x, which encodes to % x", msg, rest, again)
			}
			rest = rest[len(again):]
		}
	})
}

func TestControlRoundTripAllocs(t *testing.T) {
	a, b := controlPipe(t)
	// net.Pipe hands a Write to a Read synchronously, so the reader runs
	// beside the measured sender; its allocations count too.
	const runs = 200
	got := make(chan any, runs+1)
	go func() {
		for {
			msg, err := b.Recv()
			if err != nil {
				close(got)
				return
			}
			got <- msg
		}
	}()
	pose := vrmath.Pose{Pos: vrmath.Vec3{X: 1, Y: 2, Z: 3}, Yaw: 4, Pitch: 5, Roll: 6}
	slot := uint32(0)
	allocs := testing.AllocsPerRun(runs, func() {
		slot++
		if err := a.Send(PoseUpdate{User: 9, Slot: slot, Pose: pose}); err != nil {
			t.Fatal(err)
		}
		if m := (<-got).(PoseUpdate); m.Slot != slot || m.Pose != pose {
			t.Fatalf("got %#v", m)
		}
	})
	// The one is Recv's boxing of the PoseUpdate it returns.
	if allocs > 1 {
		t.Errorf("PoseUpdate Send+Recv = %.1f allocs, want <= 1", allocs)
	}
}

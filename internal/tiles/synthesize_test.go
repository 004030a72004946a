package tiles

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// synthesizeBlockwise is the loop synthesize replaced: every word through
// a scratch block and a copy.
func synthesizeBlockwise(seed uint64, n int) []byte {
	out := make([]byte, n)
	var block [8]byte
	x := seed
	for i := 0; i < n; i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(block[:], x)
		copy(out[i:], block[:])
	}
	return out
}

// TestSynthesizeMatchesBlockwise: the word-wise fill produces the bytes of
// the block-wise one at every length around and past a tile's, whole words
// and every tail.
func TestSynthesizeMatchesBlockwise(t *testing.T) {
	for _, seed := range []uint64{0, 11, 0xDEADBEEFCAFEF00D} {
		for n := 0; n <= 4099; n++ {
			if got, want := synthesize(seed, n), synthesizeBlockwise(seed, n); !bytes.Equal(got, want) {
				t.Fatalf("seed %#x, n %d: payloads differ", seed, n)
			}
		}
	}
}

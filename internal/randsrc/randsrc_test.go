package randsrc

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// edgeSeeds are the seeds the standard source normalizes specially: zero
// (replaced), negatives (shifted into range), multiples of the prime (zero
// after the reduction) and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, 42, zeroSeed, -zeroSeed,
	modulus, -modulus, 2 * modulus, -2 * modulus, modulus * modulus,
	modulus - 1, modulus + 1, -(modulus - 1),
	math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// checkSeed draws n values of every kind the reproduction consumes from
// both sources and reports the first divergence.
func checkSeed(t *testing.T, seed int64, n int) {
	t.Helper()
	want, got := rand.New(rand.NewSource(seed)), NewRand(seed)
	for i := 0; i < n; i++ {
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d: Int63 #%d = %d, want %d", seed, i, g, w)
		}
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("seed %d: Uint64 #%d = %d, want %d", seed, i, g, w)
		}
		if w, g := want.Float64(), got.Float64(); w != g {
			t.Fatalf("seed %d: Float64 #%d = %v, want %v", seed, i, g, w)
		}
		if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
			t.Fatalf("seed %d: NormFloat64 #%d = %v, want %v", seed, i, g, w)
		}
	}
}

// TestSourceMatchesMathRand holds the source to rand.NewSource's stream over
// the edge seeds and 2 000 more spread across the int64 range, far enough
// into each stream that the feed has lapped the register several times.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		checkSeed(t, seed, 2*length)
	}
	pick := rand.New(rand.NewSource(20221012))
	for i := 0; i < 2000; i++ {
		seed := int64(pick.Uint64())
		if i%2 == 1 {
			seed = int64(i) - 1000 // small seeds of both signs
		}
		checkSeed(t, seed, length/2)
	}
}

// TestRandSeedReseeds checks that Rand.Seed on a used source restarts it
// exactly where rand.NewSource(seed) starts, which is how a kept source is
// reused for a new stream.
func TestRandSeedReseeds(t *testing.T) {
	want, got := rand.New(rand.NewSource(5)), NewRand(5)
	for _, seed := range append([]int64{7, 7}, edgeSeeds...) {
		for i := 0; i < 3*length; i++ {
			want.Int63()
			got.Int63()
		}
		want.Seed(seed)
		got.Seed(seed)
		for i := 0; i < 2*length; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("reseed %d: Uint64 #%d = %d, want %d", seed, i, g, w)
			}
		}
	}
}

// TestLehmerA3 pins the lane multiplier against three single steps.
func TestLehmerA3(t *testing.T) {
	for _, x := range []uint64{1, 2, zeroSeed, modulus - 1} {
		want := mulMod(mulMod(mulMod(x, lehmerA), lehmerA), lehmerA)
		if got := mulMod(x, lehmerA3); got != want {
			t.Errorf("A³·%d = %d, want %d", x, got, want)
		}
	}
}

// TestSourceSize pins the struct to a heap size class: a session keeps one
// for its whole life, and 8 bytes more would cost it 512.
func TestSourceSize(t *testing.T) {
	if n := unsafe.Sizeof(Source{}); n != 4864 {
		t.Errorf("Source is %d bytes, want 4864", n)
	}
}

func TestSeedAllocs(t *testing.T) {
	var s Source
	if n := testing.AllocsPerRun(100, func() { s.Seed(12345) }); n != 0 {
		t.Errorf("Seed allocates %v times, want 0", n)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(length))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		checkSeed(t, seed, int(n%(4*length)))
	})
}

var sinkSrc rand.Source

func BenchmarkSeed(b *testing.B) {
	b.Run("randsrc", func(b *testing.B) {
		var s Source
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
		sinkSrc = &s
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
		sinkSrc = s
	})
}

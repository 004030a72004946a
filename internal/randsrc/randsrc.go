// Package randsrc provides a math/rand source that yields exactly the stream
// rand.NewSource does for every seed, but seeds about three times faster.
//
// The standard source is an additive lagged-Fibonacci generator over a
// 607-word register with tap 273. Seeding fills the register with 1 841
// consecutive values of the Lehmer recurrence x' = 48271·x mod (2³¹−1),
// three per word, each word XORed with a fixed table. The standard library
// walks the recurrence as one dependent chain of divisions (Schrage's
// method); Source.Seed walks it as three independent chains, one per word
// position, each stepping by 48271³ mod (2³¹−1) with a shift-and-add
// reduction, so the three multiplies of a word overlap in the pipeline.
//
// The fixed table is not restated here: init recovers it from the first
// register-length outputs of rand.NewSource itself (see recoverTable). The
// tests hold the two sources equal over thousands of seeds, so code that
// switches from rand.NewSource to this source, or reseeds one Source for
// several streams, draws the same numbers as before.
package randsrc

import "math/rand"

const (
	length = 607 // register words
	tap    = 273 // lag of the second operand

	modulus = 1<<31 - 1 // the Lehmer recurrence's Mersenne prime
	lehmerA = 48271
	// lehmerA3 steps one lane three positions ahead.
	lehmerA3 = lehmerA * lehmerA % modulus * lehmerA % modulus
	// zeroSeed replaces a seed that is 0 modulo the prime, as the standard
	// source does: the recurrence's fixed point would fill the register
	// with the table alone.
	zeroSeed = 89482311
	// warmup is how many recurrence values are discarded before the first
	// word.
	warmup = 20
)

// table is the register's fixed XOR mask, recovered at init.
var table = recoverTable()

// Source is a rand.Source64 whose streams equal rand.NewSource's. The zero
// value is not seeded; call Seed first. A Source is not safe for
// concurrent use.
type Source struct {
	// 32-bit indices keep the struct at 4 864 bytes, one of the heap's size
	// classes; with two ints it would round up to the next, 5 376.
	tap, feed int32
	vec       [length]int64
}

// NewRand returns a *rand.Rand over a Source seeded with seed: every method
// returns what rand.New(rand.NewSource(seed))'s would.
func NewRand(seed int64) *rand.Rand {
	s := new(Source)
	s.Seed(seed)
	return rand.New(s)
}

// mulMod returns a·x mod (2³¹−1) for x, a in [1, 2³¹−2]. The product fits
// 62 bits; one fold of the high half onto the low leaves at most one
// subtraction.
func mulMod(x, a uint64) uint64 {
	y := x * a
	y = y&modulus + y>>31
	if y >= modulus {
		y -= modulus
	}
	return y
}

// Seed resets the register to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) { s.seed(seed, &table) }

// seed fills the register from the Lehmer recurrence started at seed, each
// word XORed with mask[i].
func (s *Source) seed(seed int64, mask *[length]int64) {
	s.tap, s.feed = 0, length-tap
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	for i := 0; i < warmup; i++ {
		x = mulMod(x, lehmerA)
	}
	// Word i takes recurrence values 3i+1, 3i+2 and 3i+3 after the warm-up:
	// three lanes, each three steps apart.
	x0 := mulMod(x, lehmerA)
	x1 := mulMod(x0, lehmerA)
	x2 := mulMod(x1, lehmerA)
	for i := range s.vec {
		s.vec[i] = int64(x0)<<40 ^ int64(x1)<<20 ^ int64(x2) ^ mask[i]
		x0, x1, x2 = mulMod(x0, lehmerA3), mulMod(x1, lehmerA3), mulMod(x2, lehmerA3)
	}
}

// Uint64 returns the next 64 bits of the stream: the sum of the words at
// the feed and the tap, written back at the feed.
func (s *Source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += length
	}
	if s.feed--; s.feed < 0 {
		s.feed += length
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns Uint64 with the sign bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// recoverTable reads the fixed table back out of rand.NewSource. Seeded
// with any seed, the standard register starts as r[i] = lehmer_i ^ table[i].
// Its k-th output (k from 0) adds the feed word at (333−k) mod 607 to the
// tap word 273 places above it and writes the sum back at the feed, so
//
//	o_k = r[333−k] + r[606−k]                  for k < 273,
//	o_k = r[(333−k) mod 607] + o_(k−273)       for 273 ≤ k < 607:
//
// from output 273 on, the tap reads a word the feed has already replaced.
// The second line yields r[0..60] and r[334..606]; with those the first
// yields r[61..333]. XORing out the Lehmer part leaves the table.
func recoverTable() [length]int64 {
	const seed = 1
	std := rand.NewSource(seed).(rand.Source64)
	var out [length]int64
	for k := range out {
		out[k] = int64(std.Uint64())
	}
	const first = length - tap - 1 // the feed's first word, 333
	var r [length]int64
	for k := tap; k < length; k++ {
		r[(first-k+length)%length] = out[k] - out[k-tap]
	}
	for k := 0; k < tap; k++ {
		r[first-k] = out[k] - r[length-1-k]
	}
	var lehmer Source
	lehmer.seed(seed, &[length]int64{})
	for i := range r {
		r[i] ^= lehmer.vec[i]
	}
	return r
}

package obs

import (
	"math"
	"testing"
)

// Regression tests for the Quantile edge cases: empty histogram, q outside
// [0, 1] (including NaN), all mass in the overflow bucket, and a first
// bucket with a non-positive bound.

func TestQuantileEmptyHistogram(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	if got := newHistogram(nil).Quantile(0.5); got != 0 {
		t.Errorf("boundless histogram quantile = %v, want 0", got)
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %v, want 0", got)
	}
}

func TestQuantileClampsQ(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3} {
		h.Observe(v)
	}
	lo, hi := h.Quantile(0), h.Quantile(1)
	if got := h.Quantile(-3); got != lo {
		t.Errorf("Quantile(-3) = %v, want clamp to Quantile(0) = %v", got, lo)
	}
	if got := h.Quantile(7); got != hi {
		t.Errorf("Quantile(7) = %v, want clamp to Quantile(1) = %v", got, hi)
	}
	if got := h.Quantile(math.NaN()); got != lo {
		t.Errorf("Quantile(NaN) = %v, want %v", got, lo)
	}
	if hi > 4 || lo > hi {
		t.Errorf("clamped quantiles out of range: lo=%v hi=%v", lo, hi)
	}
}

func TestQuantileAllOverflowMass(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	for _, v := range []float64{5, 6, 7} {
		h.Observe(v)
	}
	// The histogram cannot resolve beyond its largest finite bound.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 2 {
			t.Errorf("Quantile(%v) = %v, want 2 (largest finite bound)", q, got)
		}
	}
}

func TestQuantileNonPositiveFirstBucket(t *testing.T) {
	// All mass in a first bucket whose bound is negative: the estimate must
	// not exceed the bound (the old interpolation from an implicit lower
	// edge of 0 reported values above it).
	h := newHistogram([]float64{-2, -1, 0, 1})
	h.Observe(-5)
	if got := h.Quantile(0.5); got != -2 {
		t.Errorf("Quantile(0.5) = %v, want -2", got)
	}
	// Same with a zero first bound.
	z := newHistogram([]float64{0, 1})
	z.Observe(-1)
	if got := z.Quantile(0.5); got != 0 {
		t.Errorf("zero-bound Quantile(0.5) = %v, want 0", got)
	}
	// Mass in a later negative bucket interpolates inside that bucket.
	h2 := newHistogram([]float64{-2, -1, 0})
	h2.Observe(-1.5)
	if got := h2.Quantile(0.5); got < -2 || got > -1 {
		t.Errorf("negative-bucket interpolation = %v, want within [-2, -1]", got)
	}
}

func TestQuantilePositivePathUnchanged(t *testing.T) {
	// The common case keeps its semantics: interpolation within the
	// containing bucket, first bucket interpolated from 0.
	h := newHistogram([]float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); got < 1 || got > 2 {
		t.Errorf("Quantile(0.5) = %v, want within (1, 2]", got)
	}
	first := newHistogram([]float64{10, 20})
	first.Observe(3)
	if got := first.Quantile(1); got <= 0 || got > 10 {
		t.Errorf("first-bucket Quantile(1) = %v, want within (0, 10]", got)
	}
}

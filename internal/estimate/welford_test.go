package estimate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func directMeanVar(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs))
	return mean, variance
}

func TestWelfordMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		w.Add(xs[i])
	}
	mean, variance := directMeanVar(xs)
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Errorf("Mean = %v, want %v", w.Mean(), mean)
	}
	if math.Abs(w.Variance()-variance) > 1e-9 {
		t.Errorf("Variance = %v, want %v", w.Variance(), variance)
	}
}

func TestWelfordZeroValue(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.Count() != 0 {
		t.Errorf("zero value should report zeros, got mean=%v var=%v n=%v",
			w.Mean(), w.Variance(), w.Count())
	}
	w.Add(5)
	if w.Mean() != 5 || w.Variance() != 0 {
		t.Errorf("single sample: mean=%v var=%v, want 5, 0", w.Mean(), w.Variance())
	}
}

func TestWelfordSampleVariance(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	// Known dataset: population variance 4, sample variance 32/7.
	if math.Abs(w.Variance()-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", w.Variance())
	}
	if math.Abs(w.SampleVariance()-32.0/7.0) > 1e-12 {
		t.Errorf("SampleVariance = %v, want %v", w.SampleVariance(), 32.0/7.0)
	}
}

func TestWelfordMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var all, a, b Welford
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 100
		all.Add(x)
		if i%3 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), all.Count())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 {
		t.Errorf("merged mean = %v, want %v", a.Mean(), all.Mean())
	}
	if math.Abs(a.Variance()-all.Variance()) > 1e-9 {
		t.Errorf("merged variance = %v, want %v", a.Variance(), all.Variance())
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	a.Merge(b) // empty other: no-op
	if a.Count() != 2 || a.Mean() != 2 {
		t.Errorf("merge with empty changed state: %+v", a)
	}
	b.Merge(a) // empty receiver adopts other
	if b.Count() != 2 || b.Mean() != 2 {
		t.Errorf("empty receiver merge wrong: %+v", b)
	}
}

// Property: variance is never negative, and matches the direct two-pass
// computation on arbitrary small inputs.
func TestWelfordProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var w Welford
		for i, r := range raw {
			xs[i] = float64(r) / 7
			w.Add(xs[i])
		}
		mean, variance := directMeanVar(xs)
		return w.Variance() >= 0 &&
			math.Abs(w.Mean()-mean) < 1e-6 &&
			math.Abs(w.Variance()-variance) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEMA(t *testing.T) {
	e := NewEMA(0.5)
	if e.Primed() {
		t.Fatal("new EMA should not be primed")
	}
	e.Update(10)
	if e.Value() != 10 {
		t.Errorf("first sample should initialize: %v", e.Value())
	}
	e.Update(20)
	if e.Value() != 15 {
		t.Errorf("Value = %v, want 15", e.Value())
	}
	e.Update(15)
	if e.Value() != 15 {
		t.Errorf("Value = %v, want 15", e.Value())
	}
}

func TestEMAConvergence(t *testing.T) {
	e := NewEMA(0.2)
	for i := 0; i < 200; i++ {
		e.Update(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Errorf("EMA should converge to constant input, got %v", e.Value())
	}
}

func TestEMAClampAlpha(t *testing.T) {
	e := NewEMA(-1)
	e.Update(1)
	e.Update(2)
	if e.Value() <= 1 || e.Value() >= 2 {
		t.Errorf("clamped alpha should interpolate, got %v", e.Value())
	}
	e2 := NewEMA(5) // clamped to 1: tracks last sample exactly
	e2.Update(1)
	e2.Update(9)
	if e2.Value() != 9 {
		t.Errorf("alpha=1 should track input, got %v", e2.Value())
	}
}

// The accessors and merge below are the rest of Welford's textbook
// interface; the running totals the system needs are Add and Variance.

// Count returns the number of observations so far.
func (w *Welford) Count() int { return w.n }

// Mean returns the running mean, or 0 before any observation.
func (w *Welford) Mean() float64 { return w.mean }

// SampleVariance returns the unbiased sample variance (dividing by n-1).
func (w *Welford) SampleVariance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Merge combines another Welford accumulator into w, as if all of other's
// observations had been Added to w.
func (w *Welford) Merge(other Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = other
		return
	}
	n1, n2 := float64(w.n), float64(other.n)
	delta := other.mean - w.mean
	total := n1 + n2
	w.mean += delta * n2 / total
	w.m2 += other.m2 + delta*delta*n1*n2/total
	w.n += other.n
}

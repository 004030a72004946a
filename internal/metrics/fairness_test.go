package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestJainIndexKnownValues(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{"equal", []float64{2, 2, 2, 2}, 1},
		{"one-hot", []float64{4, 0, 0, 0}, 0.25},
		{"half", []float64{1, 1, 0, 0}, 0.5},
		{"empty", nil, 0},
		{"all-zero", []float64{0, 0}, 1},
		// A negative entry shifts the vector by its minimum, it is not
		// clamped: {-1, 1, 3} is scored as {0, 2, 4}, 36/(3*20).
		{"negative-shifts", []float64{-1, 1, 3}, 0.6},
		{"all-negative-equal", []float64{-2, -2}, 1},
	}
	for _, tt := range tests {
		if got := JainIndex(tt.give); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("%s: JainIndex = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestJainIndexBoundsProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 100
		}
		j := JainIndex(xs)
		n := float64(len(xs))
		return j >= 1/n-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJainIndexScaleInvariant(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 20, 30, 40}
	if a, b := JainIndex(xs), JainIndex(ys); math.Abs(a-b) > 1e-12 {
		t.Errorf("scale changed index: %v vs %v", a, b)
	}
}

func TestJainIndexNegativeShift(t *testing.T) {
	// Negative QoE values are shifted; the index stays in range.
	j := JainIndex([]float64{-2, 0, 2})
	if j <= 0 || j > 1 {
		t.Errorf("shifted index = %v", j)
	}
}

package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0},
		{1, 0.25},
		{2.5, 0.5},
		{4, 1},
		{100, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if got := c.quantile(0); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := c.quantile(1); got != 4 {
		t.Errorf("Max = %v, want 4", got)
	}
	if got := c.Mean(); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10},
		{0.25, 20},
		{0.5, 30},
		{0.75, 40},
		{1, 50},
		{-0.5, 10},
		{1.5, 50},
		{0.125, 15},
	}
	for _, tt := range tests {
		if got := c.quantile(tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if got := c.At(1); got != 0 {
		t.Errorf("empty At = %v, want 0", got)
	}
	if !math.IsNaN(c.quantile(0.5)) || !math.IsNaN(c.Mean()) {
		t.Errorf("empty CDF should return NaN stats")
	}
	if pts := c.Points(5); pts != nil {
		t.Errorf("empty CDF Points = %v, want nil", pts)
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	c := NewCDF(in)
	in[0] = 100
	if got := c.quantile(1); got != 3 {
		t.Errorf("CDF aliased its input: Max = %v, want 3", got)
	}
}

func TestCDFQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []int16, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		c := NewCDF(xs)
		a := float64(p1%101) / 100
		b := float64(p2%101) / 100
		if a > b {
			a, b = b, a
		}
		return c.quantile(a) <= c.quantile(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFAtQuantileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	c := NewCDF(xs)
	for p := 0.05; p < 1; p += 0.05 {
		x := c.quantile(p)
		if got := c.At(x); got < p-0.05 {
			t.Errorf("At(Quantile(%v)) = %v, want >= %v", p, got, p-0.05)
		}
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points length = %d, want 5", len(pts))
	}
	if pts[0].X != 1 || pts[0].P != 0 {
		t.Errorf("first point = %+v, want {1 0}", pts[0])
	}
	if pts[4].X != 5 || pts[4].P != 1 {
		t.Errorf("last point = %+v, want {5 1}", pts[4])
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X < pts[j].X }) {
		t.Errorf("points should be sorted by X: %v", pts)
	}
}

func TestFormatSeries(t *testing.T) {
	a := NewCDF([]float64{1, 2, 3})
	b := NewCDF([]float64{4, 5, 6})
	out := FormatSeries("Fig Xx", 3, []string{"ours", "base"}, []*CDF{a, b})
	if !strings.Contains(out, "Fig Xx") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "ours") || !strings.Contains(out, "base") {
		t.Errorf("missing series names: %q", out)
	}
	if lines := strings.Count(out, "\n"); lines != 5 { // title + header + 3 rows
		t.Errorf("line count = %d, want 5: %q", lines, out)
	}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Point is a single (x, P(X<=x)) pair of a discretized CDF curve.
type Point struct {
	X float64
	P float64
}

// Points returns k evenly spaced probability points of the CDF curve,
// suitable for plotting or printing a figure series.
func (c *CDF) Points(k int) []Point {
	if k < 2 || len(c.sorted) == 0 {
		return nil
	}
	pts := make([]Point, k)
	for i := 0; i < k; i++ {
		p := float64(i) / float64(k-1)
		pts[i] = Point{X: c.quantile(p), P: p}
	}
	return pts
}

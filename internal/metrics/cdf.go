// Package metrics collects experiment results: empirical CDFs (the paper
// reports Figs. 2 and 3 as CDFs across traces), summary statistics, and the
// per-user QoE accounting of Section II.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution built from samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from the given samples. The input slice is copied.
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// quantile returns the p-quantile for p in [0, 1], interpolating between
// adjacent order statistics.
func (c *CDF) quantile(p float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.sorted[lo]
	}
	frac := pos - float64(lo)
	return c.sorted[lo]*(1-frac) + c.sorted[hi]*frac
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range c.sorted {
		sum += x
	}
	return sum / float64(len(c.sorted))
}

// FormatSeries renders named CDFs side by side at k probability points, the
// textual equivalent of one subplot of Fig. 2/3.
func FormatSeries(title string, k int, names []string, cdfs []*CDF) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	fmt.Fprintf(&b, "%-8s", "P")
	for _, n := range names {
		fmt.Fprintf(&b, "%14s", n)
	}
	b.WriteByte('\n')
	for i := 0; i < k; i++ {
		p := float64(i) / float64(k-1)
		fmt.Fprintf(&b, "%-8.2f", p)
		for _, c := range cdfs {
			fmt.Fprintf(&b, "%14.4f", c.quantile(p))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

package main

import (
	"math"
	"sort"
)

// percentile interpolates the p-quantile (0..1) of unsorted samples; 0 when
// there are none.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func minMax(samples []float64) (lo, hi float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range samples {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// stat is one reported metric: the median of its per-segment values, with
// the values themselves so a reader (and -compare) can see their spread.
type stat struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	Samples  int       `json:"samples"` // observations behind each segment value
	Segments []float64 `json:"segments,omitempty"`
}

func newStat(unit string, samples int, segments []float64) stat {
	lo, hi := minMax(segments)
	return stat{Value: median(segments), Unit: unit, Min: lo, Max: hi, Samples: samples, Segments: segments}
}

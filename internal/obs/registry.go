// Package obs is the observability layer of the reproduction: a
// lightweight, concurrency-safe metrics registry (counters, gauges,
// fixed-bucket histograms) with Prometheus text exposition, and a per-slot
// decision "flight recorder" that captures why the allocator chose the
// levels it chose — the greedy branch taken, every quality_verification
// rejection with its violated constraint, budget utilization, and the
// per-slot regret against the offline optimum when one is run alongside.
//
// Everything is nil-safe: a nil *Registry hands out nil instruments, and
// every method on a nil instrument (or a nil *Recorder) is a no-op that
// performs no allocation, so instrumented hot paths cost a pointer check
// when observability is disabled.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (cumulative on export,
// like Prometheus). All methods are safe for concurrent use and no-ops on a
// nil receiver.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// newHistogram builds a standalone histogram over the given upper bounds
// (sorted ascending; an overflow bucket is implicit). Use Registry.Histogram
// for a registered one.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// total returns the sum of all observed values.
func (h *Histogram) total() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.total() / float64(n)
	}
	return 0
}

// Quantile estimates the q-quantile (0..1) by linear interpolation within
// the containing bucket. An empty histogram reports 0; q is clamped to
// [0, 1] (NaN counts as 0); samples in the +Inf overflow bucket report the
// largest finite bound, because the histogram cannot resolve beyond it.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.Count() == 0 || len(h.bounds) == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.count.Load())
	cum := 0.0
	lo := 0.0
	for i, bound := range h.bounds {
		c := float64(h.counts[i].Load())
		if cum+c >= target && c > 0 {
			// The first bucket has no finite lower edge. Interpolating from
			// 0 is only meaningful when the bound is positive (the
			// Prometheus convention); otherwise report the bound itself
			// rather than a value above it.
			if i == 0 && bound <= 0 {
				return bound
			}
			frac := (target - cum) / c
			return lo + frac*(bound-lo)
		}
		cum += c
		lo = bound
	}
	return h.bounds[len(h.bounds)-1]
}

// LinearBuckets returns n bounds start, start+step, ...
func LinearBuckets(start, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

// ExponentialBuckets returns n bounds start, start*factor, ...
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets spans sub-millisecond to multi-second latencies in
// milliseconds.
func DefaultLatencyBuckets() []float64 {
	return []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}
}

// Registry is a named collection of instruments. The zero value is not
// usable; a nil *Registry is the disabled registry: it hands out nil
// instruments whose methods are allocation-free no-ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use (later calls reuse the existing
// buckets). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// EachCounter calls fn for every registered counter while holding the
// registry lock: fn must be fast and must not call back into the registry.
// Iteration order is the map's (nondeterministic); callers needing order
// must sort downstream. No-op on a nil registry.
func (r *Registry) EachCounter(fn func(name string, c *Counter)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		fn(n, c)
	}
}

// EachGauge is EachCounter for gauges.
func (r *Registry) EachGauge(fn func(name string, g *Gauge)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, g := range r.gauges {
		fn(n, g)
	}
}

// EachHistogram is EachCounter for histograms.
func (r *Registry) EachHistogram(fn func(name string, h *Histogram)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, h := range r.histograms {
		fn(n, h)
	}
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format, sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	counters := make(map[string]*Counter, len(r.counters))
	gauges := make(map[string]*Gauge, len(r.gauges))
	histograms := make(map[string]*Histogram, len(r.histograms))
	for n, c := range r.counters {
		names = append(names, n)
		counters[n] = c
	}
	for n, g := range r.gauges {
		names = append(names, n)
		gauges[n] = g
	}
	for n, h := range r.histograms {
		names = append(names, n)
		histograms[n] = h
	}
	r.mu.Unlock()
	sort.Strings(names)

	for _, name := range names {
		var err error
		switch {
		case counters[name] != nil:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, counters[name].Value())
		case gauges[name] != nil:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, gauges[name].Value())
		case histograms[name] != nil:
			err = writePrometheusHistogram(w, name, histograms[name])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writePrometheusHistogram(w io.Writer, name string, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmtBound(bound), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.total(), name, h.Count())
	return err
}

func fmtBound(b float64) string { return fmt.Sprintf("%g", b) }

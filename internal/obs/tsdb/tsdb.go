// Package tsdb is the fleet health plane's embedded time-series store: a
// fixed-memory ring per health series keyed to the virtual slot clock. Every
// observability surface the stack had before this package (/metrics,
// /debug/slo, /debug/fleet) is a point-in-time snapshot; tsdb is what
// remembers how those snapshots *evolved*, so trend reports, the baseline
// gate and the SLO-pressure evacuation loop can act on distributions over
// time instead of instantaneous samples.
//
// A Store holds named Series, optionally per shard. Each series keeps one
// preallocated ring of its most recent per-slot samples, so memory is fixed
// at registration time and steady-state observation never allocates.
// Because observations are keyed by slot number — never wall time — a
// virtual-time sim run and a live run produce the same schema, and a seeded
// sim run produces bit-identical exports run after run.
//
// Everything is nil-safe in the obs-package tradition: a nil *Store hands
// out nil Series, and every method on a nil receiver is an allocation-free
// no-op, so a disabled health plane costs one pointer check per sample.
package tsdb

import (
	"math"
	"sync"

	"repro/internal/jsonl"
)

// Kind tells readers how to summarize a series.
type Kind uint8

const (
	// Gauge samples summarize by their mean.
	Gauge Kind = iota
	// Counter samples are cumulative; they summarize by their delta over
	// the window (last - first).
	Counter
	// Hist marks a series sampled from a histogram snapshot (a per-slot
	// quantile or mean). It summarizes like a gauge; the kind survives into
	// exports so readers know the value is itself a summary.
	hist
)

// String returns the export name of the kind.
func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case hist:
		return "hist"
	default:
		return "gauge"
	}
}

// kindByName is the inverse of Kind.String (unknown names read as gauge,
// reported by the bool).
func kindByName(s string) (Kind, bool) {
	switch s {
	case "counter":
		return Counter, true
	case "gauge":
		return Gauge, true
	case "hist":
		return hist, true
	}
	return Gauge, false
}

// fleetShard marks a series as fleet-wide rather than per-shard.
const fleetShard = -1

// Options sizes a Store's rings.
type Options struct {
	// RawSlots is each ring's point capacity (default 600: 10 s at the
	// paper's 60 slots per second).
	RawSlots int
}

func (o Options) withDefaults() Options {
	if o.RawSlots <= 0 {
		o.RawSlots = 600
	}
	return o
}

// Series is one named health series and its ring. A nil *Series is the
// disabled series: Observe is an allocation-free no-op.
type Series struct {
	store *Store
	name  string
	kind  Kind
	shard int

	raw jsonl.Ring[SnapPoint]
}

// Observe records one sample at the given slot. Samples are expected in
// nondecreasing slot order (the slot clock only moves forward). Never
// allocates.
func (s *Series) Observe(slot int64, v float64) {
	if s == nil {
		return
	}
	s.store.mu.Lock()
	s.raw.Push(SnapPoint{Slot: slot, Value: v})
	s.store.mu.Unlock()
}

// WindowStats summarizes the last n raw points of a series.
type WindowStats struct {
	Count int
	First float64
	Last  float64
	Min   float64
	Max   float64
	Sum   float64
}

// Mean returns the window's mean value (NaN when empty).
func (w WindowStats) Mean() float64 {
	if w.Count == 0 {
		return math.NaN()
	}
	return w.Sum / float64(w.Count)
}

// Stats summarizes the most recent n raw points without allocating — the
// query the evacuation loop runs every slot. n <= 0 or a nil series yields
// an empty window.
func (s *Series) Stats(n int) WindowStats {
	var w WindowStats
	if s == nil || n <= 0 {
		return w
	}
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	n = min(n, s.raw.Len())
	for i := 0; i < n; i++ {
		v := s.raw.At(s.raw.Len() - n + i).Value
		if i == 0 {
			w.First, w.Min, w.Max = v, v, v
		} else {
			if v < w.Min {
				w.Min = v
			}
			if v > w.Max {
				w.Max = v
			}
		}
		w.Last = v
		w.Sum += v
		w.Count++
	}
	return w
}

// Store is the embedded time-series database: a named collection of Series
// sharing one lock and one ring geometry. A nil *Store is the disabled
// store: Series/ShardSeries return nil and Snapshot returns nothing.
type Store struct {
	mu     sync.Mutex
	opts   Options
	series []*Series
	byKey  map[seriesKey]*Series
}

type seriesKey struct {
	name  string
	shard int
}

// New builds a store (zero Options take the defaults).
func New(opts Options) *Store {
	return &Store{opts: opts.withDefaults(), byKey: make(map[seriesKey]*Series)}
}

// Series returns the fleet-wide series registered under name, creating it on
// first use (later calls reuse the series; the kind is fixed at creation).
// Returns nil on a nil store.
func (st *Store) Series(name string, kind Kind) *Series {
	return st.ShardSeries(name, kind, fleetShard)
}

// ShardSeries is Series keyed to one shard, so per-shard trajectories of the
// same signal stay separable (and aggregable) downstream.
func (st *Store) ShardSeries(name string, kind Kind, shard int) *Series {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	key := seriesKey{name: name, shard: shard}
	if s := st.byKey[key]; s != nil {
		return s
	}
	s := &Series{
		store: st,
		name:  name,
		kind:  kind,
		shard: shard,
		raw:   jsonl.NewRing[SnapPoint](st.opts.RawSlots),
	}
	st.series = append(st.series, s)
	st.byKey[key] = s
	return s
}

// Len returns the number of registered series.
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.series)
}

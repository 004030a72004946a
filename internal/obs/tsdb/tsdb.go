// Package tsdb is the fleet health plane's embedded time-series store: a
// fixed-memory, multi-resolution ring of health series keyed to the virtual
// slot clock. Every observability surface the stack had before this package
// (/metrics, /debug/slo, /debug/fleet) is a point-in-time snapshot; tsdb is
// what remembers how those snapshots *evolved*, so trend reports, the
// baseline gate and the SLO-pressure evacuation loop can act on distributions
// over time instead of instantaneous samples.
//
// A Store holds named Series, optionally per shard. Each series keeps three
// tiers: the raw per-slot ring, a 10-slot downsampled ring and a 100-slot
// downsampled ring, all preallocated, so memory is fixed at registration
// time and steady-state observation never allocates. Because observations
// are keyed by slot number — never wall time — a virtual-time sim run and a
// live run produce the same schema, and a seeded sim run produces
// bit-identical exports run after run.
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

// Kind tells the downsampler (and readers) how to aggregate a series.
type Kind uint8

const (
	// Gauge samples aggregate by mean/min/max over a downsample window.
	Gauge Kind = iota
	// Counter samples are cumulative; a downsampled point's value is the
	// delta over its window (last - first), i.e. a windowed rate.
	Counter
	// Hist marks a series sampled from a histogram snapshot (a per-slot
	// quantile or mean). It aggregates like a gauge; the kind survives into
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

// The downsample widths of the two aggregated tiers, in slots.
const (
	tier10  = 10
	tier100 = 100
)

// fleetShard marks a series as fleet-wide rather than per-shard.
const fleetShard = -1

// Options sizes a Store's rings.
type Options struct {
	// RawSlots is the raw ring's point capacity (default 600 — 60 s of the
	// paper's 100 ms slots, matching the SLO monitor's long window).
	RawSlots int
	// TierPoints is each downsampled ring's point capacity (default 128:
	// 1280 slots of tier-10 and 12800 slots of tier-100 history).
	TierPoints int
}

func (o Options) withDefaults() Options {
	if o.RawSlots <= 0 {
		o.RawSlots = 600
	}
	if o.TierPoints <= 0 {
		o.TierPoints = 128
	}
	return o
}

// point is one raw observation.
type point struct {
	Slot  int64
	Value float64
}

// aggPoint is one downsampled window: Slot is the window's first slot.
type aggPoint struct {
	Slot  int64
	Count uint32
	First float64
	Last  float64
	Min   float64
	Max   float64
	Sum   float64
}

// fold absorbs one raw observation into the window aggregate.
func (a *aggPoint) fold(v float64) {
	if a.Count == 0 {
		a.First, a.Min, a.Max = v, v, v
	} else {
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Last = v
	a.Sum += v
	a.Count++
}

// value reduces the window per the series kind: counters report the delta
// over the window, gauges (and hist samples) the mean.
func (a *aggPoint) value(kind Kind) float64 {
	if a.Count == 0 {
		return 0
	}
	if kind == Counter {
		return a.Last - a.First
	}
	return a.Sum / float64(a.Count)
}

// tier is one downsampled ring plus the partially-filled current window.
type tier struct {
	width  int64
	pts    jsonl.Ring[aggPoint]
	cur    aggPoint
	curWin int64 // cur's window index; -1 when cur is empty
}

func (t *tier) observe(slot int64, v float64) {
	win := slot / t.width
	if t.curWin != win && t.cur.Count > 0 {
		t.pts.Push(t.cur)
		t.cur = aggPoint{}
	}
	if t.cur.Count == 0 {
		t.curWin = win
		t.cur.Slot = win * t.width
	}
	t.cur.fold(v)
}

// Series is one named health series with its three resolution tiers. A nil
// *Series is the disabled series: Observe is an allocation-free no-op.
type Series struct {
	store *Store
	name  string
	kind  Kind
	shard int

	raw   jsonl.Ring[point]
	tiers [2]tier
	total uint64 // observations ever made
}

// Observe records one sample at the given slot. Samples are expected in
// nondecreasing slot order (the slot clock only moves forward); a repeated
// slot folds into the same downsample windows. Never allocates.
func (s *Series) Observe(slot int64, v float64) {
	if s == nil {
		return
	}
	s.store.mu.Lock()
	s.raw.Push(point{Slot: slot, Value: v})
	s.tiers[0].observe(slot, v)
	s.tiers[1].observe(slot, v)
	s.total++
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

// totalCount returns how many observations the series has ever absorbed.
func (s *Series) totalCount() uint64 {
	if s == nil {
		return 0
	}
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	return s.total
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
		raw:   jsonl.NewRing[point](st.opts.RawSlots),
	}
	s.tiers[0] = tier{width: tier10, pts: jsonl.NewRing[aggPoint](st.opts.TierPoints), curWin: -1}
	s.tiers[1] = tier{width: tier100, pts: jsonl.NewRing[aggPoint](st.opts.TierPoints), curWin: -1}
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

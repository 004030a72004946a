// Package nettrace provides the network-throughput traces of the paper's
// Section IV. The paper draws half of its traces from the FCC broadband
// dataset ("Web browsing" category) and half from the Ghent 4G/LTE dataset,
// clipping throughput to 20-100 Mbps and 300 seconds per trace. Neither
// dataset can ship with an offline reproduction, so this package generates
// synthetic traces with the same statistics the algorithms actually consume:
// piecewise-constant throughput with multi-second holds ("the network
// throughput in the dataset usually lasts for several seconds for each
// point"), broadband-like stability for the FCC half and cellular-like
// volatility for the LTE half.
package nettrace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"
)

// Segment is one hold of a piecewise-constant throughput trace.
type Segment struct {
	Mbps    float64
	Seconds float64
}

// Trace is a throughput trace: a sequence of multi-second holds.
type Trace struct {
	Segments []Segment
}

// Duration returns the total trace length in seconds.
func (t *Trace) Duration() float64 {
	var d float64
	for _, s := range t.Segments {
		d += s.Seconds
	}
	return d
}

// Kind selects the generator profile.
type Kind int

const (
	// Broadband mimics the FCC fixed-broadband measurements: long holds,
	// small deviations around a stable plan rate with occasional congestion
	// dips.
	Broadband Kind = iota + 1
	// LTE mimics the Ghent 4G/LTE logs: shorter holds and larger swings as
	// the UE moves through varying radio conditions.
	LTE
	// MmWave mimics a 5G mmWave link (an extension beyond the paper's two
	// datasets): very high rates with abrupt blockage collapses — the most
	// hostile profile for estimation-driven allocation.
	MmWave
)

// Config bounds the generated traces; the defaults are the paper's.
type Config struct {
	MinMbps float64 // clip floor (paper: 20)
	MaxMbps float64 // clip ceiling (paper: 100)
	Seconds float64 // trace length (paper: 300)
}

// DefaultConfig matches Section IV: 20-100 Mbps, 300 s.
func DefaultConfig() Config { return Config{MinMbps: 20, MaxMbps: 100, Seconds: 300} }

// Generate produces one trace of the given kind.
func Generate(kind Kind, cfg Config, rng *rand.Rand) *Trace {
	t := &Trace{}
	t.GenerateInto(kind, cfg, rng)
	return t
}

// GenerateInto replaces t's segments with a trace of the given kind — the
// one Generate draws from the same rng — reusing the Segments array when it
// has room.
func (t *Trace) GenerateInto(kind Kind, cfg Config, rng *rand.Rand) {
	if cfg.MaxMbps <= cfg.MinMbps {
		cfg = DefaultConfig()
	}
	span := cfg.MaxMbps - cfg.MinMbps
	segs := t.Segments[:0]
	elapsed := 0.0

	switch kind {
	case MmWave:
		// Line-of-sight at near-ceiling rates, interrupted by blockage
		// events that collapse the link toward the floor for 0.5-3 s.
		blocked := false
		for elapsed < cfg.Seconds {
			var hold, level float64
			if blocked {
				hold = 0.5 + rng.Float64()*2.5
				level = cfg.MinMbps * (1 + rng.Float64()*0.5)
			} else {
				hold = 2 + rng.Float64()*8
				level = cfg.MaxMbps * (0.8 + rng.Float64()*0.2)
			}
			if elapsed+hold > cfg.Seconds {
				hold = cfg.Seconds - elapsed
			}
			segs = append(segs, Segment{Mbps: clip(level, cfg.MinMbps, cfg.MaxMbps), Seconds: hold})
			elapsed += hold
			if blocked {
				blocked = false
			} else {
				blocked = rng.Float64() < 0.4
			}
		}
	case LTE:
		// Random walk with short holds and heavy swings.
		level := cfg.MinMbps + rng.Float64()*span
		for elapsed < cfg.Seconds {
			hold := 1 + rng.Float64()*4 // 1-5 s holds
			if elapsed+hold > cfg.Seconds {
				hold = cfg.Seconds - elapsed
			}
			segs = append(segs, Segment{Mbps: level, Seconds: hold})
			elapsed += hold
			level += rng.NormFloat64() * span * 0.18
			level = clip(level, cfg.MinMbps, cfg.MaxMbps)
		}
	default: // Broadband
		// A stable plan rate with small noise and rare congestion dips.
		plan := cfg.MinMbps + span*(0.35+0.6*rng.Float64())
		for elapsed < cfg.Seconds {
			hold := 5 + rng.Float64()*25 // 5-30 s holds
			if elapsed+hold > cfg.Seconds {
				hold = cfg.Seconds - elapsed
			}
			level := plan * (0.92 + 0.16*rng.Float64())
			if rng.Float64() < 0.08 { // occasional congestion dip
				level = plan * (0.5 + 0.3*rng.Float64())
			}
			segs = append(segs, Segment{
				Mbps:    clip(level, cfg.MinMbps, cfg.MaxMbps),
				Seconds: hold,
			})
			elapsed += hold
		}
	}
	t.Segments = segs
}

// GenerateMix builds n traces, half Broadband and half LTE, as the paper
// does ("We randomly generate half of the requested traces from the ... FCC
// dataset ... The other half ... from Ghent's dataset").
func GenerateMix(n int, cfg Config, rng *rand.Rand) []*Trace {
	out := make([]*Trace, n)
	for i := range out {
		kind := Broadband
		if i%2 == 1 {
			kind = LTE
		}
		out[i] = Generate(kind, cfg, rng)
	}
	return out
}

func clip(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Slotted expands the trace into per-slot throughput values: the first
// slots values of its Cursor.
func (t *Trace) Slotted(slots int, slotsPerSecond float64) []float64 {
	out := make([]float64, slots)
	c := t.Cursor(slotsPerSecond)
	for i := range out {
		out[i] = c.Next()
	}
	return out
}

// SlotCursor walks a trace slot by slot: consecutive slots share a
// segment's bandwidth until its duration is consumed, exactly the paper's
// mapping ("we just let multiple continuous slots share the same bandwidth
// until their cumulative time reaches the trace's duration"). Past the
// trace's end it wraps around. An empty trace yields zeros.
type SlotCursor struct {
	segs      []Segment
	seg       int
	remaining float64 // seconds left in segs[seg]
	dt        float64
}

// Cursor returns a cursor at the trace's first slot, at slotsPerSecond (60
// when not positive).
func (t *Trace) Cursor(slotsPerSecond float64) SlotCursor {
	if slotsPerSecond <= 0 {
		slotsPerSecond = 60
	}
	c := SlotCursor{segs: t.Segments, dt: 1 / slotsPerSecond}
	if len(c.segs) > 0 {
		c.remaining = c.segs[0].Seconds
	}
	return c
}

// Next returns the current slot's throughput in Mbps and moves to the next
// slot.
func (c *SlotCursor) Next() float64 {
	if len(c.segs) == 0 {
		return 0
	}
	mbps := c.segs[c.seg].Mbps
	c.remaining -= c.dt
	for c.remaining <= 0 {
		c.seg = (c.seg + 1) % len(c.segs)
		c.remaining += c.segs[c.seg].Seconds
		if c.segs[c.seg].Seconds <= 0 {
			// Zero-length segment guard: skip without looping forever.
			c.remaining += c.dt
		}
	}
	return mbps
}

// WriteCSV serializes the trace as mbps,seconds rows.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"mbps", "seconds"}); err != nil {
		return fmt.Errorf("nettrace: write header: %w", err)
	}
	for i, s := range t.Segments {
		rec := []string{
			strconv.FormatFloat(s.Mbps, 'g', 10, 64),
			strconv.FormatFloat(s.Seconds, 'g', 10, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("nettrace: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("nettrace: read csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("nettrace: empty csv")
	}
	tr := &Trace{}
	for i, row := range rows[1:] {
		if len(row) != 2 {
			return nil, fmt.Errorf("nettrace: row %d has %d fields, want 2", i, len(row))
		}
		mbps, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("nettrace: row %d mbps: %w", i, err)
		}
		secs, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("nettrace: row %d seconds: %w", i, err)
		}
		tr.Segments = append(tr.Segments, Segment{Mbps: mbps, Seconds: secs})
	}
	return tr, nil
}

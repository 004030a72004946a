// Package load is the scalable workload-generation, record/replay and
// capacity-search harness of the reproduction. The paper's own evaluation is
// trace-driven (Section IV: 100 head-motion traces per user, FCC + Ghent
// 4G/LTE network traces), but its setups are fixed at 5/8/15/30 users; this
// package asks the production question the ROADMAP cares about: how many
// concurrent VR sessions can one edge server sustain before deadline misses
// blow up?
//
// The subsystem has three layers:
//
//  1. Workload models — seeded, deterministic session-arrival processes
//     (steady, Poisson, two-state MMPP, flash crowd, diurnal ramp) with
//     session-duration churn and per-session motion/network-trace
//     assignment.
//  2. Record/replay — a workload (and, optionally, its full per-slot pose
//     event stream) serializes to JSONL; the same seed produces a
//     byte-identical file, and a recorded workload replays bit-identically,
//     so a regression in a later PR can be reproduced from a committed
//     workload file.
//  3. Measurement and capacity search — per-session QoE, deadline-miss and
//     latency percentiles aggregated through internal/obs, an end-of-run
//     report table, and a binary search for the maximum concurrent session
//     count that keeps the deadline-miss rate below a target.
//
// Execution comes in two flavours: a deterministic virtual-time engine
// (Simulate) used for replay verification and fast capacity probes, and a
// live engine (RunLive) that drives a real internal/server.Server over
// loopback sockets with hundreds to thousands of emulated clients.
package load

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/motion"
	"repro/internal/nettrace"
	"repro/internal/randsrc"
)

// Shape selects the session-arrival process.
type Shape string

const (
	// Steady spawns a fixed number of sessions near slot zero that live for
	// the whole horizon — the capacity-probe workload.
	Steady Shape = "steady"
	// Poisson draws i.i.d. exponential inter-arrivals at RatePerSec.
	Poisson Shape = "poisson"
	// MMPP is a two-state Markov-modulated Poisson process: a low state at
	// RatePerSec and a high state at RatePerSec*MMPPHighFactor, with
	// exponential dwell times — bursty arrivals with long-range correlation.
	MMPP Shape = "mmpp"
	// Flash is Poisson at RatePerSec with a flash-crowd window in which the
	// rate multiplies by BurstFactor.
	Flash Shape = "flash"
	// Diurnal modulates the Poisson rate by a raised-cosine day curve over
	// the horizon: quiet at the edges, peak in the middle.
	Diurnal Shape = "diurnal"
)

// Config parametrizes workload generation. The zero value of every optional
// field is replaced by the documented default; Generate never mutates the
// caller's copy.
type Config struct {
	Shape Shape `json:"shape"`
	Seed  int64 `json:"seed"`
	// HorizonSlots is the workload length in display slots.
	HorizonSlots int `json:"horizon_slots"`
	// SlotsPerSecond converts between seconds and slots (default 60).
	SlotsPerSecond float64 `json:"slots_per_second"`
	// Sessions caps the number of sessions. For Steady it is the concurrent
	// session count; for the stochastic shapes 0 means unlimited.
	Sessions int `json:"sessions"`
	// RatePerSec is the mean arrival rate of the stochastic shapes
	// (default 10).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// MeanHoldSec is the mean session duration; durations are exponential,
	// clamped to [MinHoldSec, remaining horizon]. 0 means sessions last the
	// whole horizon.
	MeanHoldSec float64 `json:"mean_hold_sec,omitempty"`
	// MinHoldSec floors the duration draw (default 0.5).
	MinHoldSec float64 `json:"min_hold_sec,omitempty"`
	// RampSlots spreads Steady arrivals over the first RampSlots slots so
	// that hundreds of handshakes do not land on one tick (default: one
	// second's worth of slots, clipped to a quarter of the horizon).
	RampSlots int `json:"ramp_slots,omitempty"`
	// BurstFactor multiplies the rate inside the Flash window (default 8).
	BurstFactor float64 `json:"burst_factor,omitempty"`
	// BurstStartFrac/BurstLenFrac place the Flash window as fractions of the
	// horizon (defaults 0.5 and 0.1).
	BurstStartFrac float64 `json:"burst_start_frac,omitempty"`
	BurstLenFrac   float64 `json:"burst_len_frac,omitempty"`
	// MMPPHighFactor is the high-state rate multiplier (default 4).
	MMPPHighFactor float64 `json:"mmpp_high_factor,omitempty"`
	// MMPPDwellSec is the mean dwell time per MMPP state (default 10).
	MMPPDwellSec float64 `json:"mmpp_dwell_sec,omitempty"`
	// NetKinds assigns network-trace profiles round-robin across sessions;
	// empty means the paper's half-broadband/half-LTE mix.
	NetKinds []nettrace.Kind `json:"net_kinds,omitempty"`
	// Net bounds the generated network traces (zero value: paper defaults).
	Net nettrace.Config `json:"net"`
}

// withDefaults returns a copy with every optional field defaulted.
func (c Config) withDefaults() Config {
	if c.Shape == "" {
		c.Shape = Steady
	}
	if c.SlotsPerSecond <= 0 {
		c.SlotsPerSecond = 60
	}
	if c.HorizonSlots <= 0 {
		c.HorizonSlots = int(10 * c.SlotsPerSecond)
	}
	if c.RatePerSec <= 0 {
		c.RatePerSec = 10
	}
	if c.MinHoldSec <= 0 {
		c.MinHoldSec = 0.5
	}
	if c.RampSlots <= 0 {
		c.RampSlots = int(c.SlotsPerSecond)
	}
	if quarter := c.HorizonSlots / 4; c.RampSlots > quarter && quarter > 0 {
		c.RampSlots = quarter
	}
	if c.BurstFactor <= 0 {
		c.BurstFactor = 8
	}
	if c.BurstStartFrac <= 0 {
		c.BurstStartFrac = 0.5
	}
	if c.BurstLenFrac <= 0 {
		c.BurstLenFrac = 0.1
	}
	if c.MMPPHighFactor <= 0 {
		c.MMPPHighFactor = 4
	}
	if c.MMPPDwellSec <= 0 {
		c.MMPPDwellSec = 10
	}
	if len(c.NetKinds) == 0 {
		c.NetKinds = []nettrace.Kind{nettrace.Broadband, nettrace.LTE}
	}
	if c.Net.MaxMbps <= c.Net.MinMbps {
		c.Net = nettrace.DefaultConfig()
	}
	return c
}

// SessionSpec is one emulated VR session: when it arrives and departs and
// the seeds from which its motion trace and network trace derive. Everything
// about a session is reproducible from its spec alone, which is what keeps
// workload files small: poses need not be stored to be replayed
// bit-identically.
type SessionSpec struct {
	ID         uint32        `json:"id"`
	ArriveSlot int           `json:"arrive"`
	DepartSlot int           `json:"depart"` // exclusive
	Scene      int           `json:"scene"`  // index into motion.Scenes()
	MotionSeed int64         `json:"motion_seed"`
	NetKind    nettrace.Kind `json:"net_kind"`
	NetSeed    int64         `json:"net_seed"`
}

// Slots returns the session's lifetime in slots.
func (s SessionSpec) Slots() int { return s.DepartSlot - s.ArriveSlot }

// Workload is a generated (or replayed) set of sessions, sorted by arrival
// slot and, within a slot, by ID.
type Workload struct {
	Cfg      Config
	Sessions []SessionSpec
}

// Generate builds the workload deterministically from cfg.Seed: the same
// configuration always yields the identical session list.
func Generate(cfg Config) (*Workload, error) {
	cfg = cfg.withDefaults()
	if cfg.Shape == Steady && cfg.Sessions <= 0 {
		return nil, fmt.Errorf("load: steady workload needs Sessions > 0")
	}
	rng := randsrc.NewRand(cfg.Seed)
	w := &Workload{Cfg: cfg}

	if cfg.Shape == Steady {
		for i := 0; i < cfg.Sessions; i++ {
			arrive := 0
			if cfg.RampSlots > 1 {
				arrive = i % cfg.RampSlots
			}
			w.addSession(rng, arrive)
		}
		// Steady sessions arrive round-robin across the ramp; restore
		// arrival order.
		sortSessions(w.Sessions)
		return w, nil
	}

	// The stochastic shapes share one mechanism: a per-slot arrival count
	// drawn from Poisson(lambda(t) * dt), with lambda(t) set by the shape.
	dt := 1 / cfg.SlotsPerSecond
	mmppHigh := false
	switchProb := dt / cfg.MMPPDwellSec
	burstStart := int(cfg.BurstStartFrac * float64(cfg.HorizonSlots))
	burstEnd := burstStart + int(cfg.BurstLenFrac*float64(cfg.HorizonSlots))
	for slot := 0; slot < cfg.HorizonSlots; slot++ {
		lambda := cfg.RatePerSec
		switch cfg.Shape {
		case Poisson:
			// Constant rate.
		case MMPP:
			if rng.Float64() < switchProb {
				mmppHigh = !mmppHigh
			}
			if mmppHigh {
				lambda *= cfg.MMPPHighFactor
			}
		case Flash:
			if slot >= burstStart && slot < burstEnd {
				lambda *= cfg.BurstFactor
			}
		case Diurnal:
			frac := float64(slot) / float64(cfg.HorizonSlots)
			lambda *= 0.1 + 0.9*0.5*(1-math.Cos(2*math.Pi*frac))
		default:
			return nil, fmt.Errorf("load: unknown arrival shape %q", cfg.Shape)
		}
		for n := poissonSample(rng, lambda*dt); n > 0; n-- {
			if cfg.Sessions > 0 && len(w.Sessions) >= cfg.Sessions {
				return w, nil
			}
			w.addSession(rng, slot)
		}
	}
	return w, nil
}

// addSession appends one session arriving at the given slot, drawing its
// duration and trace seeds from rng in a fixed order.
func (w *Workload) addSession(rng *rand.Rand, arrive int) {
	cfg := w.Cfg
	id := uint32(len(w.Sessions))
	depart := cfg.HorizonSlots
	if cfg.MeanHoldSec > 0 {
		holdSec := rng.ExpFloat64() * cfg.MeanHoldSec
		if holdSec < cfg.MinHoldSec {
			holdSec = cfg.MinHoldSec
		}
		depart = arrive + int(holdSec*cfg.SlotsPerSecond)
		if depart > cfg.HorizonSlots {
			depart = cfg.HorizonSlots
		}
		if depart <= arrive {
			depart = arrive + 1
		}
	}
	w.Sessions = append(w.Sessions, SessionSpec{
		ID:         id,
		ArriveSlot: arrive,
		DepartSlot: depart,
		Scene:      int(id) % len(motion.Scenes()),
		MotionSeed: rng.Int63(),
		NetKind:    cfg.NetKinds[int(id)%len(cfg.NetKinds)],
		NetSeed:    rng.Int63(),
	})
}

// sortSessions orders by (ArriveSlot, ID) with a stable insertion sort (the
// lists are nearly sorted already).
func sortSessions(specs []SessionSpec) {
	for i := 1; i < len(specs); i++ {
		for j := i; j > 0; j-- {
			a, b := specs[j-1], specs[j]
			if a.ArriveSlot < b.ArriveSlot || (a.ArriveSlot == b.ArriveSlot && a.ID < b.ID) {
				break
			}
			specs[j-1], specs[j] = b, a
		}
	}
}

// poissonSample draws from Poisson(lambda) by Knuth's product method; the
// per-slot lambdas here are far below one, so the loop is short.
func poissonSample(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// peakConcurrent returns the maximum number of simultaneously active
// sessions over the horizon: a prefix sum over per-slot arrival and
// departure counts, O(sessions + horizon).
func (w *Workload) peakConcurrent() int {
	if len(w.Sessions) == 0 {
		return 0
	}
	lo, hi := w.Sessions[0].ArriveSlot, w.Sessions[0].ArriveSlot
	for _, s := range w.Sessions {
		lo, hi = min(lo, s.ArriveSlot, s.DepartSlot), max(hi, s.ArriveSlot, s.DepartSlot)
	}
	delta := make([]int, hi-lo+1)
	for _, s := range w.Sessions {
		delta[s.ArriveSlot-lo]++
		delta[s.DepartSlot-lo]--
	}
	cur, peak := 0, 0
	for _, d := range delta {
		cur += d
		peak = max(peak, cur)
	}
	return peak
}

// walker starts the session's motion walk, drawing from rng (reseeded; nil
// allocates one). Deterministic in the spec.
func (w *Workload) walker(spec SessionSpec, rng *rand.Rand) motion.Walker {
	scenes := motion.Scenes()
	var walk motion.Walker
	walk.Reset(scenes[spec.Scene%len(scenes)], int(spec.ID), w.Cfg.SlotsPerSecond, spec.MotionSeed, rng)
	return walk
}

// MotionTrace regenerates the session's motion trace: the walk it replays
// from arrival to departure (plus extraSlots of slack so a live client never
// wraps early). Deterministic in the spec.
func (w *Workload) MotionTrace(spec SessionSpec, extraSlots int) motion.Trace {
	walk := w.walker(spec, nil)
	tr := make(motion.Trace, spec.Slots()+extraSlots)
	for i := range tr {
		tr[i] = walk.Next()
	}
	return tr
}

// netTraceInto regenerates the session's network trace into t, reusing its
// segment array, drawing from rng (reseeded with the spec's seed; nil
// allocates one). It is generated only
// as far as the session reads it — to its last slot plus a second of slack
// — where the Net config is valid and the session ends before the full
// trace would wrap. Its segments are then a prefix of the full trace's (the
// generator draws segment by segment, and only the clipped last hold
// differs), so every slot the session reads is bit-identical to the full
// trace's.
func (w *Workload) netTraceInto(t *nettrace.Trace, spec SessionSpec, rng *rand.Rand) {
	if rng == nil {
		rng = randsrc.NewRand(spec.NetSeed)
	} else {
		rng.Seed(spec.NetSeed)
	}
	cfg := w.Cfg.Net
	sps := w.Cfg.SlotsPerSecond
	if sps <= 0 {
		sps = 60
	}
	if need := float64(spec.Slots())/sps + 1; cfg.MaxMbps > cfg.MinMbps && need < cfg.Seconds {
		cfg.Seconds = need
	}
	t.GenerateInto(spec.NetKind, cfg, rng)
}

// CapSlots regenerates the session's per-slot link capacity in Mbps from its
// assigned network trace. Deterministic in the spec.
func (w *Workload) CapSlots(spec SessionSpec) []float64 {
	var t nettrace.Trace
	w.netTraceInto(&t, spec, nil)
	return t.Slotted(spec.Slots(), w.Cfg.SlotsPerSecond)
}

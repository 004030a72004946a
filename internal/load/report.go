package load

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/server"
)

// sessionOutcome is the measured result of one completed session.
type sessionOutcome struct {
	ID    uint32
	Slots int
	// QoE components, per-slot averages as in metrics.Report.
	QoE      float64
	Quality  float64
	DelayMs  float64
	Variance float64
	Coverage float64
	// MissFrac is the fraction of the session's slots whose frame missed its
	// display deadline.
	MissFrac float64
	// SetupMs is the session setup latency (dial + handshake); live runs
	// only.
	SetupMs float64
}

// RunReport aggregates one workload execution.
type RunReport struct {
	Mode         string // "sim" or "live"
	Algorithm    string
	HorizonSlots int
	// Spawned counts sessions the workload scheduled; Completed those that
	// ran at least one slot; Failed those that errored or were rejected by
	// server backpressure before serving anything.
	Spawned   int
	Completed int
	Failed    int
	// PeakConcurrent is the maximum simultaneously active session count
	// (measured for live runs, schedule-derived for sim runs).
	PeakConcurrent int
	// WallSec is the wall-clock duration of a live run (0 for sim).
	WallSec float64
	// SlotDecisionP50Ms/P99Ms quote the server's slot-decision latency
	// histogram when a live run shares a metrics registry (0 otherwise).
	SlotDecisionP50Ms float64
	SlotDecisionP99Ms float64
	// SlotQuality is the per-slot mean displayed quality across active
	// sessions (0 for missed frames and empty slots), recorded by the sim
	// engine. It is what chaos-recovery analysis plots: the QoE dip during
	// a fault window and the climb back after it.
	SlotQuality []float64
	// DegradedSlots counts session-slots whose allocation the circuit
	// breaker capped below the allocator's choice (sim engine).
	DegradedSlots int
	// Outcomes holds every completed session, sorted by ID.
	Outcomes []sessionOutcome

	serverStats []server.UserStats
}

// ServerStats returns the server's per-user counters at the end of a
// RunLive run (nil for the other engines).
func (r *RunReport) ServerStats() []server.UserStats { return r.serverStats }

// MeanSlotQuality averages SlotQuality over [from, to) (slot indexes are
// clamped to the recorded range; returns 0 when the window is empty).
func (r *RunReport) MeanSlotQuality(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(r.SlotQuality) {
		to = len(r.SlotQuality)
	}
	if from >= to {
		return 0
	}
	sum := 0.0
	for _, q := range r.SlotQuality[from:to] {
		sum += q
	}
	return sum / float64(to-from)
}

// AggregateMissRate returns the slot-weighted deadline-miss fraction across
// all completed sessions — the capacity-search criterion.
func (r *RunReport) AggregateMissRate() float64 {
	var missed, total float64
	for _, o := range r.Outcomes {
		missed += o.MissFrac * float64(o.Slots)
		total += float64(o.Slots)
	}
	if total == 0 {
		return 0
	}
	return missed / total
}

// percentile interpolates the p-quantile (0..1) of unsorted samples.
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
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + frac*(s[i+1]-s[i])
}

// column extracts one outcome field across sessions.
func (r *RunReport) column(get func(sessionOutcome) float64) []float64 {
	out := make([]float64, len(r.Outcomes))
	for i, o := range r.Outcomes {
		out[i] = get(o)
	}
	return out
}

// Format renders the end-of-run report: session accounting, then per-session
// percentiles of QoE, delivery delay, deadline-miss fraction and setup
// latency.
func (r *RunReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# loadgen report (%s, algorithm %s)\n", r.Mode, r.Algorithm)
	fmt.Fprintf(&b, "sessions: spawned %d, completed %d, failed %d, peak concurrent %d\n",
		r.Spawned, r.Completed, r.Failed, r.PeakConcurrent)
	fmt.Fprintf(&b, "horizon: %d slots", r.HorizonSlots)
	if r.WallSec > 0 {
		fmt.Fprintf(&b, " (%.1f s wall)", r.WallSec)
	}
	fmt.Fprintf(&b, "\naggregate deadline-miss rate: %.4f\n", r.AggregateMissRate())
	if r.DegradedSlots > 0 {
		fmt.Fprintf(&b, "breaker-degraded session-slots: %d\n", r.DegradedSlots)
	}
	if r.SlotDecisionP99Ms > 0 {
		fmt.Fprintf(&b, "server slot decision latency: p50 %.3f ms, p99 %.3f ms\n",
			r.SlotDecisionP50Ms, r.SlotDecisionP99Ms)
	}
	if len(r.Outcomes) == 0 {
		b.WriteString("no completed sessions\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s\n", "per-session", "p50", "p90", "p99", "mean")
	row := func(name string, get func(sessionOutcome) float64) {
		col := r.column(get)
		var sum float64
		for _, v := range col {
			sum += v
		}
		fmt.Fprintf(&b, "%-16s %10.4f %10.4f %10.4f %10.4f\n", name,
			percentile(col, 0.50), percentile(col, 0.90), percentile(col, 0.99),
			sum/float64(len(col)))
	}
	row("qoe", func(o sessionOutcome) float64 { return o.QoE })
	row("quality", func(o sessionOutcome) float64 { return o.Quality })
	row("delay_ms", func(o sessionOutcome) float64 { return o.DelayMs })
	row("miss_frac", func(o sessionOutcome) float64 { return o.MissFrac })
	if r.Mode == "live" {
		row("setup_ms", func(o sessionOutcome) float64 { return o.SetupMs })
	}
	return b.String()
}

// sortOutcomes orders outcomes by session ID.
func sortOutcomes(out []sessionOutcome) {
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
}

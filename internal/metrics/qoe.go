package metrics

import (
	"fmt"
	"strings"

	"repro/internal/estimate"
)

// QoEParams are the weights of the paper's QoE definition (Section II):
// QoE_n(T) = sum_t E[q 1] - alpha*E[d] - beta*sigma^2(T).
type QoEParams struct {
	Alpha float64 // delay sensitivity
	Beta  float64 // quality-variance sensitivity
}

// UserQoE accumulates the QoE of one user over a finite horizon, tracking
// each component separately so that the per-component subplots of Figs. 2, 3,
// 7 and 8 can be reported.
type UserQoE struct {
	params QoEParams

	slots        int
	qualitySum   float64 // sum of q_n(t) * 1_n(t)
	delaySum     float64
	viewed       estimate.Welford // variance of q*1 over the horizon
	coveredSlots int
	frames       int // frames displayed on time (real-system runs)
}

// NewUserQoE returns an accumulator with the given weights.
func NewUserQoE(params QoEParams) *UserQoE {
	u := &UserQoE{}
	u.Reset(params)
	return u
}

// Reset empties the accumulator in place and sets its weights, as if it
// were new.
func (u *UserQoE) Reset(params QoEParams) {
	*u = UserQoE{params: params}
}

// Observe records one slot: the allocated quality level q, whether the
// delivered portion covered the actual FoV, and the content delivery delay.
func (u *UserQoE) Observe(q int, covered bool, delay float64) {
	u.slots++
	viewedQ := 0.0
	if covered {
		viewedQ = float64(q)
		u.coveredSlots++
	}
	u.qualitySum += viewedQ
	u.delaySum += delay
	u.viewed.Add(viewedQ)
}

// ObserveFrame additionally records whether the slot's frame was displayed
// by its deadline (used by the real-system pipeline for FPS accounting).
func (u *UserQoE) ObserveFrame(displayed bool) {
	if displayed {
		u.frames++
	}
}

// Slots returns the number of observed slots.
func (u *UserQoE) Slots() int { return u.slots }

// AvgQuality returns the average successfully-viewed quality (1/T sum q*1).
func (u *UserQoE) AvgQuality() float64 {
	if u.slots == 0 {
		return 0
	}
	return u.qualitySum / float64(u.slots)
}

// AvgDelay returns the average content delivery delay.
func (u *UserQoE) AvgDelay() float64 {
	if u.slots == 0 {
		return 0
	}
	return u.delaySum / float64(u.slots)
}

// Variance returns sigma_n^2(T), the population variance of the
// successfully-viewed quality.
func (u *UserQoE) Variance() float64 { return u.viewed.Variance() }

// CoverageRate returns the fraction of slots whose delivered portion covered
// the actual FoV — the empirical delta_n.
func (u *UserQoE) CoverageRate() float64 {
	if u.slots == 0 {
		return 0
	}
	return float64(u.coveredSlots) / float64(u.slots)
}

// FPS returns frames displayed per slot times the display rate; callers
// multiply by the slot rate. Here it is the fraction of on-time frames.
func (u *UserQoE) FrameRate() float64 {
	if u.slots == 0 {
		return 0
	}
	return float64(u.frames) / float64(u.slots)
}

// QoE returns the per-slot average QoE:
// avg(q*1) - alpha*avg(d) - beta*sigma^2(T).
// The paper's QoE_n(T) is T times this; reporting the per-slot average makes
// runs of different lengths comparable.
func (u *UserQoE) QoE() float64 {
	return u.AvgQuality() - u.params.Alpha*u.AvgDelay() - u.params.Beta*u.Variance()
}

// Report aggregates per-user accumulators into experiment-level numbers.
type Report struct {
	QoE      float64
	Quality  float64
	Delay    float64
	Variance float64
	Coverage float64
	FPSFrac  float64 // fraction of frames displayed on time
}

// Aggregate averages the per-user metrics of a run.
func Aggregate(users []*UserQoE) Report {
	reports := make([]Report, len(users))
	for i, u := range users {
		reports[i] = Report{QoE: u.QoE(), Quality: u.AvgQuality(), Delay: u.AvgDelay(),
			Variance: u.Variance(), Coverage: u.CoverageRate(), FPSFrac: u.FrameRate()}
	}
	return Mean(reports)
}

// Mean averages reports field by field — per-user reports into a run's, or
// runs' into a multi-repeat figure. It returns the zero Report for none.
func Mean(reports []Report) Report {
	var m Report
	if len(reports) == 0 {
		return m
	}
	for _, r := range reports {
		m.QoE += r.QoE
		m.Quality += r.Quality
		m.Delay += r.Delay
		m.Variance += r.Variance
		m.Coverage += r.Coverage
		m.FPSFrac += r.FPSFrac
	}
	n := float64(len(reports))
	m.QoE /= n
	m.Quality /= n
	m.Delay /= n
	m.Variance /= n
	m.Coverage /= n
	m.FPSFrac /= n
	return m
}

// FormatComparison renders a table of named reports, one per algorithm, the
// textual equivalent of the bar charts of Figs. 7 and 8.
func FormatComparison(title string, names []string, reports []Report, slotRate float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %10s %8s\n",
		"algorithm", "QoE", "quality", "delay", "variance", "coverage", "FPS")
	for i, n := range names {
		r := reports[i]
		fmt.Fprintf(&b, "%-12s %10.4f %10.4f %10.4f %10.4f %10.4f %8.1f\n",
			n, r.QoE, r.Quality, r.Delay, r.Variance, r.Coverage, r.FPSFrac*slotRate)
	}
	return b.String()
}

package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/jsonl"
)

// Constraint names of a quality_verification rejection, matching the two
// feasibility checks of Algorithm 1: the per-user budget B_n(t) and the
// shared slot budget B(t).
const (
	ConstraintUserCap = "user-cap"
	ConstraintBudget  = "budget"
)

// ConstraintUnprofitable marks a counterfactual upgrade the greedy loop
// never attempted because its marginal score had gone negative ("if eta < 0
// then I = {}"). It appears only in Alternatives, never in Rejections.
const ConstraintUnprofitable = "unprofitable"

// Alternative is one unchosen upgrade the allocator considered and walked
// away from: raising User to Level would have added Gain objective value.
// Score is the greedy pass's marginal ranking score, so alternatives are
// directly comparable with the upgrades that won.
type Alternative struct {
	User   int     `json:"user"`
	Level  int     `json:"level"`
	Score  float64 `json:"score"`
	Gain   float64 `json:"gain"`
	Reason string  `json:"reason"`
}

// Rejection is one quality_verification failure: the upgrade of one user to
// one level was reverted because it violated a constraint.
type Rejection struct {
	User       int    `json:"user"`
	Level      int    `json:"level"`
	Constraint string `json:"constraint"`
}

// SlotRecord is one flight-recorder entry: everything one allocation slot
// decided for one algorithm, and (when an offline optimum ran over the same
// inputs) how far the decision landed from it.
type SlotRecord struct {
	Algorithm  string  `json:"algorithm"`
	Run        int     `json:"run"`
	Slot       int     `json:"slot"`
	Levels     []int   `json:"levels"`
	Value      float64 `json:"value"`
	RateMbps   float64 `json:"rate_mbps"`
	BudgetMbps float64 `json:"budget_mbps"`
	// Utilization is RateMbps/BudgetMbps, the slot's budget utilization.
	Utilization float64 `json:"utilization"`
	// Branch is the greedy branch the combined algorithm returned
	// ("density" or "value"); empty for non-greedy allocators.
	Branch string `json:"branch,omitempty"`
	// Upgrades counts the accepted quality upgrades of the returned pass.
	Upgrades   int         `json:"upgrades"`
	Rejections []Rejection `json:"rejections,omitempty"`
	// Objective decomposition (eq. (9)) of the chosen allocation:
	// Value = QualityTerm - DelayTerm - VarianceTerm.
	QualityTerm  float64 `json:"quality_term"`
	DelayTerm    float64 `json:"delay_term"`
	VarianceTerm float64 `json:"variance_term"`
	// Regret is max(0, OptimalValue-Value); meaningful only when HasRegret
	// is set (an offline optimum ran over the same slot inputs).
	OptimalValue float64 `json:"optimal_value,omitempty"`
	Regret       float64 `json:"regret"`
	HasRegret    bool    `json:"has_regret"`
	// SessionIDs maps slot-local user indices to stable session IDs, so
	// per-user fields survive churn (a session's index changes as others
	// join and leave). Empty when the producer has no session identity; the
	// attributor then falls back to the index.
	SessionIDs []uint32 `json:"session_ids,omitempty"`
	// Alternatives are the top-K unchosen upgrades of the winning greedy
	// pass — the slot's counterfactual decisions. Present only when capture
	// was enabled (opt-in; see knapsack.PassTrace.TopK).
	Alternatives []Alternative `json:"alternatives,omitempty"`
	// UserValues is each user's objective contribution h_n at the chosen
	// levels (eq. (9) per user; sums to Value).
	UserValues []float64 `json:"user_values,omitempty"`
	// UserRegret is each user's objective shortfall versus the reference
	// optimum's allocation of the same slot (positive: the optimum served
	// this user better). Set only alongside HasRegret.
	UserRegret []float64 `json:"user_regret,omitempty"`
	// CapErr is each user's signed relative channel-capacity estimate error
	// (est-true)/true, when the producer estimates capacity; regret on a
	// badly-estimated user is attributed to the estimator, not the policy.
	CapErr []float64 `json:"cap_err,omitempty"`
}

// RecorderOptions configures a Recorder.
type RecorderOptions struct {
	// RingSize bounds the in-memory record ring served by /debug/slots
	// (default 256; the ring holds the most recent records).
	RingSize int
	// Writer, when non-nil, receives every record as one JSON line.
	Writer io.Writer
	// Attributor, when non-nil, receives every record for regret
	// attribution (served by /debug/regret).
	Attributor *RegretAttributor
}

// regretBuckets spans the objective scale of the paper's instances (per-slot
// h_n sums in the low tens).
var regretBuckets = []float64{0, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25}

// utilizationBuckets cover budget utilization 0..1+.
var utilizationBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1}

// algAgg is the running aggregation of one algorithm's records.
type algAgg struct {
	slots       int
	valueSum    float64
	utilHist    *Histogram
	upgrades    uint64
	rejections  map[string]uint64
	regretSlots int
	regretSum   float64
	regretMax   float64
	regretHist  *Histogram
}

// Recorder is the concurrency-safe decision flight recorder: a jsonl.Sink
// of SlotRecords plus the per-algorithm aggregation behind Summary. A nil
// *Recorder is the disabled recorder: Enabled reports false and Record is
// an allocation-free no-op.
type Recorder struct {
	mu    sync.Mutex // held across every Put, so Summary's count matches aggs
	sink  *jsonl.Sink[SlotRecord]
	attr  *RegretAttributor
	aggs  map[string]*algAgg
	order []string // algorithm names in first-seen order
}

// NewRecorder builds a recorder.
func NewRecorder(opts RecorderOptions) *Recorder {
	return &Recorder{
		sink: jsonl.NewSink[SlotRecord](jsonl.SinkOptions{RingSize: opts.RingSize, Writer: opts.Writer, Sync: true}),
		aggs: make(map[string]*algAgg),
		attr: opts.Attributor,
	}
}

// Enabled reports whether records will be kept. Use it to skip building a
// SlotRecord on the disabled path.
func (r *Recorder) Enabled() bool { return r != nil }

// Record ingests one slot record (copied; the caller may reuse rec, but
// not the slices it points to — the ring and the attributor alias them).
func (r *Recorder) Record(rec *SlotRecord) {
	if r == nil || rec == nil {
		return
	}
	r.attr.Observe(rec)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sink.Put(rec)

	agg := r.aggs[rec.Algorithm]
	if agg == nil {
		agg = &algAgg{
			rejections: make(map[string]uint64),
			regretHist: newHistogram(regretBuckets),
			utilHist:   newHistogram(utilizationBuckets),
		}
		r.aggs[rec.Algorithm] = agg
		r.order = append(r.order, rec.Algorithm)
	}
	agg.slots++
	agg.valueSum += rec.Value
	agg.utilHist.Observe(rec.Utilization)
	agg.upgrades += uint64(rec.Upgrades)
	for _, rej := range rec.Rejections {
		agg.rejections[rej.Constraint]++
	}
	if rec.HasRegret {
		agg.regretSlots++
		agg.regretSum += rec.Regret
		if rec.Regret > agg.regretMax {
			agg.regretMax = rec.Regret
		}
		agg.regretHist.Observe(rec.Regret)
	}
}

// sinkOrNil is the recorder's sink, nil when the recorder is.
func (r *Recorder) sinkOrNil() *jsonl.Sink[SlotRecord] {
	if r == nil {
		return nil
	}
	return r.sink
}

// Err returns the first JSONL write error, if any.
func (r *Recorder) Err() error { return r.sinkOrNil().Err() }

// Records returns the total number of records ingested.
func (r *Recorder) Records() uint64 { return r.sinkOrNil().Records() }

// RingCapacity returns the configured ring size (0 when disabled).
func (r *Recorder) RingCapacity() int { return r.sinkOrNil().Cap() }

// Dropped returns how many records have fallen out of the ring (the sink's
// Evicted count). A JSONL writer still saw them; the /debug/slots ring did
// not.
func (r *Recorder) Dropped() uint64 { return r.sinkOrNil().Evicted() }

// Recent returns up to n of the most recent records, oldest first.
func (r *Recorder) Recent(n int) []SlotRecord { return r.sinkOrNil().Recent(n) }

// AlgorithmSummary aggregates one algorithm's records.
type AlgorithmSummary struct {
	Name            string  `json:"algorithm"`
	Slots           int     `json:"slots"`
	MeanValue       float64 `json:"mean_value"`
	MeanUtilization float64 `json:"mean_utilization"`
	P90Utilization  float64 `json:"p90_utilization"`
	Upgrades        uint64  `json:"upgrades"`
	// RejectsUserCap and RejectsBudget split the quality_verification
	// rejections by violated constraint.
	RejectsUserCap uint64 `json:"rejects_user_cap"`
	RejectsBudget  uint64 `json:"rejects_budget"`
	// Regret statistics versus the offline optimum (RegretSlots == 0 when
	// no optimum ran alongside).
	RegretSlots int     `json:"regret_slots"`
	MeanRegret  float64 `json:"mean_regret"`
	MaxRegret   float64 `json:"max_regret"`
	P50Regret   float64 `json:"p50_regret"`
	P90Regret   float64 `json:"p90_regret"`
	P99Regret   float64 `json:"p99_regret"`
}

// Summary is the end-of-run aggregation of every record seen.
type Summary struct {
	Records    uint64             `json:"records"`
	Algorithms []AlgorithmSummary `json:"algorithms"`
}

// Summary computes the aggregation so far.
func (r *Recorder) Summary() Summary {
	if r == nil {
		return Summary{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Summary{Records: r.sink.Records()}
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	for _, name := range names {
		agg := r.aggs[name]
		as := AlgorithmSummary{
			Name:           name,
			Slots:          agg.slots,
			Upgrades:       agg.upgrades,
			RejectsUserCap: agg.rejections[ConstraintUserCap],
			RejectsBudget:  agg.rejections[ConstraintBudget],
			RegretSlots:    agg.regretSlots,
			MaxRegret:      agg.regretMax,
		}
		if agg.slots > 0 {
			as.MeanValue = agg.valueSum / float64(agg.slots)
			as.MeanUtilization = agg.utilHist.Mean()
			as.P90Utilization = agg.utilHist.Quantile(0.9)
		}
		if agg.regretSlots > 0 {
			as.MeanRegret = agg.regretSum / float64(agg.regretSlots)
			as.P50Regret = agg.regretHist.Quantile(0.5)
			as.P90Regret = agg.regretHist.Quantile(0.9)
			as.P99Regret = agg.regretHist.Quantile(0.99)
		}
		s.Algorithms = append(s.Algorithms, as)
	}
	return s
}

// Format renders the summary as the end-of-run report table.
func (s Summary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# trace summary: %d records\n", s.Records)
	fmt.Fprintf(&b, "%-10s %8s %9s %12s %11s %10s %8s %12s %10s %10s %10s\n",
		"algorithm", "slots", "upgrades", "rej(capB_n)", "rej(budB)", "mean-util", "p90-util",
		"mean-regret", "max-regret", "p90-regret", "p99-regret")
	for _, a := range s.Algorithms {
		fmt.Fprintf(&b, "%-10s %8d %9d %12d %11d %10.3f %8.3f ",
			a.Name, a.Slots, a.Upgrades, a.RejectsUserCap, a.RejectsBudget,
			a.MeanUtilization, a.P90Utilization)
		if a.RegretSlots > 0 {
			fmt.Fprintf(&b, "%12.5f %10.5f %10.5f %10.5f\n",
				a.MeanRegret, a.MaxRegret, a.P90Regret, a.P99Regret)
		} else {
			fmt.Fprintf(&b, "%12s %10s %10s %10s\n", "-", "-", "-", "-")
		}
	}
	return b.String()
}

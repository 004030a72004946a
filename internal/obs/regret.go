package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/jsonl"
)

// Attribution reasons. The first three mirror the allocator's own decision
// record (rejection constraints and counterfactual alternatives); the last
// two are derived by the attributor.
const (
	// ReasonChannelEstimate: the user's channel capacity estimate was off
	// by at least capErrThreshold, so the allocator solved the wrong
	// problem for this user — the regret belongs to the estimator.
	ReasonChannelEstimate = "channel-estimate"
	// ReasonStructural: the greedy heuristic itself left value on the
	// table with no rejection, alternative, or estimate error to blame
	// (e.g. the density/value branch split of Algorithm 1 vs the optimum's
	// cross-user trade).
	ReasonStructural = "structural"
)

// regretRow is one concrete attribution: this session, in this slot, lost
// this much objective value for this reason.
type regretRow struct {
	Algorithm string  `json:"algorithm"`
	Run       int     `json:"run"`
	Slot      int     `json:"slot"`
	Session   uint32  `json:"session"`
	Reason    string  `json:"reason"`
	Regret    float64 `json:"regret"`
}

// rowBefore orders rows for the worst-rows list: larger regret first, then
// (run, slot, session, algorithm) ascending so reports are deterministic.
func rowBefore(a, b regretRow) bool {
	if a.Regret != b.Regret {
		return a.Regret > b.Regret
	}
	if a.Run != b.Run {
		return a.Run < b.Run
	}
	if a.Slot != b.Slot {
		return a.Slot < b.Slot
	}
	if a.Session != b.Session {
		return a.Session < b.Session
	}
	return a.Algorithm < b.Algorithm
}

// regretShare is one bucket of the regret breakdown (by reason or by
// session) with its fraction of the attributed total.
type regretShare struct {
	Reason  string  `json:"reason,omitempty"`
	Session uint32  `json:"session,omitempty"`
	Regret  float64 `json:"regret"`
	Share   float64 `json:"share"`
}

// RegretReport is the attributor's aggregate document (/debug/regret and
// collabvr-inspect regret).
type RegretReport struct {
	Slots       int `json:"slots"`
	RegretSlots int `json:"regret_slots"`
	// TotalRegret sums Regret over every record with a reference optimum;
	// AttributedRegret is the portion broken down into Rows. Their ratio is
	// AttributedFraction (1 when everything has a per-user breakdown).
	TotalRegret        float64 `json:"total_regret"`
	AttributedRegret   float64 `json:"attributed_regret"`
	AttributedFraction float64 `json:"attributed_fraction"`
	Rows               int     `json:"rows"`
	// ByReason and TopSessions break the attributed regret down; WorstRows
	// are the costliest individual (session, slot, reason) attributions.
	ByReason    []regretShare `json:"by_reason"`
	TopSessions []regretShare `json:"top_sessions"`
	WorstRows   []regretRow   `json:"worst_rows"`
	// ForgoneGain is the proxy breakdown for records without a reference
	// optimum (counterfactuals recorded without -regret-ref): the summed
	// positive objective gain of the recorded counterfactual alternatives,
	// by reason. It bounds what a less constrained allocator could have
	// added, without claiming regret.
	ForgoneGain []regretShare `json:"forgone_gain,omitempty"`
}

// RegretAttributorOptions configures a RegretAttributor.
type RegretAttributorOptions struct {
	// Registry, when non-nil, mirrors the attribution into
	// collabvr_regret_* metrics.
	Registry *Registry
}

// RegretAttributor folds slot records into a per-session/per-slot regret
// breakdown with reasons. It answers the question the aggregate regret
// histogram cannot: which decisions lost the QoE, and why. A nil
// *RegretAttributor is disabled: every method is an allocation-free no-op.
type RegretAttributor struct {
	mu          sync.Mutex
	slots       int
	regretSlots int
	total       float64
	attributed  float64
	rows        int
	byReason    map[string]float64
	bySession   map[uint32]float64
	worst       []regretRow
	forgone     map[string]float64

	cSlots      *Counter
	gTotal      *Gauge
	gAttributed *Gauge
	gReason     map[string]*Gauge
}

// regretReasons is the closed set of attribution reasons, which keeps the
// mirrored metric names stable.
var regretReasons = []string{
	ConstraintBudget, ConstraintUserCap, ConstraintUnprofitable,
	ReasonChannelEstimate, ReasonStructural,
}

const (
	// capErrThreshold is the |CapErr| above which a user's regret is
	// attributed to the channel estimator rather than the allocation policy.
	capErrThreshold = 0.25
	// topRows bounds the WorstRows and TopSessions lists.
	topRows = 10
)

// NewRegretAttributor builds an attributor.
func NewRegretAttributor(opts RegretAttributorOptions) *RegretAttributor {
	a := &RegretAttributor{
		byReason:    make(map[string]float64),
		bySession:   make(map[uint32]float64),
		forgone:     make(map[string]float64),
		cSlots:      opts.Registry.Counter("collabvr_regret_slots_total"),
		gTotal:      opts.Registry.Gauge("collabvr_regret_sum"),
		gAttributed: opts.Registry.Gauge("collabvr_regret_attributed_sum"),
		gReason:     make(map[string]*Gauge, len(regretReasons)),
	}
	for _, reason := range regretReasons {
		name := "collabvr_regret_reason_" + strings.ReplaceAll(reason, "-", "_") + "_sum"
		a.gReason[reason] = opts.Registry.Gauge(name)
	}
	return a
}

// Observe folds one slot record into the attribution. Records without a
// reference optimum contribute only to the forgone-gain proxy.
func (a *RegretAttributor) Observe(rec *SlotRecord) {
	if a == nil || rec == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.slots++
	a.cSlots.Inc()

	if !rec.HasRegret {
		for _, alt := range rec.Alternatives {
			if alt.Gain > 0 {
				a.forgone[alt.Reason] += alt.Gain
			}
		}
		return
	}
	a.regretSlots++
	a.total += rec.Regret
	a.gTotal.Add(rec.Regret)
	if rec.Regret <= 0 {
		return
	}

	// Split the slot's regret across the users the optimum served better,
	// proportionally to their shortfall, so the attributed sum equals the
	// slot regret exactly whenever a per-user breakdown exists.
	posSum := 0.0
	for _, ur := range rec.UserRegret {
		if ur > 0 {
			posSum += ur
		}
	}
	if posSum == 0 {
		return // no per-user breakdown: stays unattributed, honestly
	}
	for u, ur := range rec.UserRegret {
		if ur <= 0 {
			continue
		}
		share := rec.Regret * ur / posSum
		reason := a.classify(rec, u)
		session := uint32(u)
		if u < len(rec.SessionIDs) {
			session = rec.SessionIDs[u]
		}
		a.attributed += share
		a.gAttributed.Add(share)
		a.byReason[reason] += share
		a.gReason[reason].Add(share)
		a.bySession[session] += share
		a.rows++
		a.worst = insertWorstRow(a.worst, topRows, regretRow{
			Algorithm: rec.Algorithm,
			Run:       rec.Run,
			Slot:      rec.Slot,
			Session:   session,
			Reason:    reason,
			Regret:    share,
		})
	}
}

// classify picks the attribution reason for user u of rec, most specific
// cause first: a bad channel estimate, then the recorded rejection, then
// the recorded counterfactual alternative, then the structural residue.
func (a *RegretAttributor) classify(rec *SlotRecord, u int) string {
	if u < len(rec.CapErr) && math.Abs(rec.CapErr[u]) >= capErrThreshold {
		return ReasonChannelEstimate
	}
	for _, rej := range rec.Rejections {
		if rej.User == u {
			return rej.Constraint
		}
	}
	for _, alt := range rec.Alternatives {
		if alt.User == u {
			return alt.Reason
		}
	}
	return ReasonStructural
}

// insertWorstRow keeps the k worst rows sorted by rowBefore, shifting in
// place like the solver's top-K accumulator.
func insertWorstRow(rows []regretRow, k int, row regretRow) []regretRow {
	switch {
	case len(rows) < k:
		rows = append(rows, row)
	case rowBefore(row, rows[len(rows)-1]):
		rows[len(rows)-1] = row
	default:
		return rows
	}
	for i := len(rows) - 1; i > 0 && rowBefore(rows[i], rows[i-1]); i-- {
		rows[i], rows[i-1] = rows[i-1], rows[i]
	}
	return rows
}

// Report computes the aggregate attribution document so far.
func (a *RegretAttributor) Report() RegretReport {
	if a == nil {
		return RegretReport{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := RegretReport{
		Slots:            a.slots,
		RegretSlots:      a.regretSlots,
		TotalRegret:      a.total,
		AttributedRegret: a.attributed,
		Rows:             a.rows,
		WorstRows:        append([]regretRow(nil), a.worst...),
	}
	if a.total > 0 {
		rep.AttributedFraction = a.attributed / a.total
	} else if a.regretSlots > 0 {
		rep.AttributedFraction = 1 // zero regret is fully explained
	}
	for reason, sum := range a.byReason {
		s := regretShare{Reason: reason, Regret: sum}
		if a.attributed > 0 {
			s.Share = sum / a.attributed
		}
		rep.ByReason = append(rep.ByReason, s)
	}
	sort.Slice(rep.ByReason, func(i, j int) bool {
		if rep.ByReason[i].Regret != rep.ByReason[j].Regret {
			return rep.ByReason[i].Regret > rep.ByReason[j].Regret
		}
		return rep.ByReason[i].Reason < rep.ByReason[j].Reason
	})
	for session, sum := range a.bySession {
		s := regretShare{Session: session, Regret: sum}
		if a.attributed > 0 {
			s.Share = sum / a.attributed
		}
		rep.TopSessions = append(rep.TopSessions, s)
	}
	sort.Slice(rep.TopSessions, func(i, j int) bool {
		if rep.TopSessions[i].Regret != rep.TopSessions[j].Regret {
			return rep.TopSessions[i].Regret > rep.TopSessions[j].Regret
		}
		return rep.TopSessions[i].Session < rep.TopSessions[j].Session
	})
	if len(rep.TopSessions) > topRows {
		rep.TopSessions = rep.TopSessions[:topRows]
	}
	forgoneTotal := 0.0
	for _, sum := range a.forgone {
		forgoneTotal += sum
	}
	for reason, sum := range a.forgone {
		s := regretShare{Reason: reason, Regret: sum}
		if forgoneTotal > 0 {
			s.Share = sum / forgoneTotal
		}
		rep.ForgoneGain = append(rep.ForgoneGain, s)
	}
	sort.Slice(rep.ForgoneGain, func(i, j int) bool {
		if rep.ForgoneGain[i].Regret != rep.ForgoneGain[j].Regret {
			return rep.ForgoneGain[i].Regret > rep.ForgoneGain[j].Regret
		}
		return rep.ForgoneGain[i].Reason < rep.ForgoneGain[j].Reason
	})
	return rep
}

// Format renders the report as the CLI's text table.
func (r RegretReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# regret attribution: %d slots, %d with reference optimum\n",
		r.Slots, r.RegretSlots)
	fmt.Fprintf(&b, "total regret %.5f, attributed %.5f (%.1f%%) across %d rows\n",
		r.TotalRegret, r.AttributedRegret, 100*r.AttributedFraction, r.Rows)
	if len(r.ByReason) > 0 {
		fmt.Fprintf(&b, "\n%-18s %12s %8s\n", "reason", "regret", "share")
		for _, s := range r.ByReason {
			fmt.Fprintf(&b, "%-18s %12.5f %7.1f%%\n", s.Reason, s.Regret, 100*s.Share)
		}
	}
	if len(r.TopSessions) > 0 {
		fmt.Fprintf(&b, "\n%-10s %12s %8s\n", "session", "regret", "share")
		for _, s := range r.TopSessions {
			fmt.Fprintf(&b, "%-10d %12.5f %7.1f%%\n", s.Session, s.Regret, 100*s.Share)
		}
	}
	if len(r.WorstRows) > 0 {
		fmt.Fprintf(&b, "\nworst decisions:\n%-10s %5s %7s %8s %-18s %10s\n",
			"algorithm", "run", "slot", "session", "reason", "regret")
		for _, row := range r.WorstRows {
			fmt.Fprintf(&b, "%-10s %5d %7d %8d %-18s %10.5f\n",
				row.Algorithm, row.Run, row.Slot, row.Session, row.Reason, row.Regret)
		}
	}
	if len(r.ForgoneGain) > 0 {
		fmt.Fprintf(&b, "\nforgone gain (no reference optimum; proxy):\n%-18s %12s %8s\n",
			"reason", "gain", "share")
		for _, s := range r.ForgoneGain {
			fmt.Fprintf(&b, "%-18s %12.5f %7.1f%%\n", s.Reason, s.Regret, 100*s.Share)
		}
	}
	return b.String()
}

// ReadSlotRecords parses a decision JSONL export (the format Recorder
// writes). Like the span reader, it tolerates a trailing run of partial or
// malformed lines from a live writer — skipped and counted — but fails on
// interior corruption.
func ReadSlotRecords(r io.Reader) ([]SlotRecord, int, error) {
	recs, skipped, err := jsonl.Decode(r, func(rec *SlotRecord) error {
		if rec.Algorithm == "" {
			return errors.New("record without algorithm")
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("obs: %w", err)
	}
	return recs, skipped, nil
}

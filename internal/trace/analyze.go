package trace

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/jsonl"
)

// ReadSpans parses a JSONL span export (the format Exporter writes). Blank
// lines are skipped; any malformed line — including a partial tail — is an
// error. Prefer ReadSpansTolerant when the file may still be written to.
func ReadSpans(r io.Reader) ([]SpanRecord, error) {
	spans, skipped, err := ReadSpansTolerant(r)
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		return nil, fmt.Errorf("trace: %d malformed trailing line(s)", skipped)
	}
	return spans, nil
}

// ReadSpansTolerant parses a JSONL span export from a file a live exporter
// may still be appending to: a trailing run of partial or malformed lines
// is skipped and counted instead of failing the read. A malformed line in
// the interior of the stream (followed by well-formed spans) is still a
// hard error.
func ReadSpansTolerant(r io.Reader) ([]SpanRecord, int, error) {
	spans, skipped, err := jsonl.Decode(r, func(rec *SpanRecord) error {
		if rec.Trace == 0 || rec.Stage == "" {
			return errors.New("span without trace/stage")
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("trace: %w", err)
	}
	return spans, skipped, nil
}

// stageStat aggregates one pipeline stage across every trace.
type stageStat struct {
	Stage string  `json:"stage"`
	Count int     `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// TotalMs is the summed duration of the stage across all traces, and
	// Share its fraction of the summed duration of all stages — where the
	// pipeline's time goes in aggregate.
	TotalMs float64 `json:"total_ms"`
	Share   float64 `json:"share"`
	// Critical counts the traces in which this stage was the single
	// longest one — the per-trace critical-path attribution.
	Critical int `json:"critical"`
}

// stageDur is one stage's duration inside a trace breakdown.
type stageDur struct {
	Stage string  `json:"stage"`
	Ms    float64 `json:"ms"`
}

// traceBreakdown is one trace's per-stage latency decomposition; the
// analysis keeps the slowest ones as exemplars.
type traceBreakdown struct {
	Trace   uint64     `json:"trace"`
	User    uint32     `json:"user"`
	Slot    uint32     `json:"slot"`
	TotalMs float64    `json:"total_ms"`
	Outcome string     `json:"outcome,omitempty"`
	Retries int        `json:"retries,omitempty"`
	Stages  []stageDur `json:"stages"`
}

// Analysis is the trace-level aggregation collabvr-inspect spans prints.
type Analysis struct {
	Spans  int `json:"spans"`
	Traces int `json:"traces"`
	// Stitched counts traces holding spans from both the server and the
	// client side — requests whose halves joined across the wire.
	Stitched  int `json:"stitched"`
	Displayed int `json:"displayed"`
	Missed    int `json:"missed"`
	Retried   int `json:"retried"`
	// Abandoned counts traces whose retry budget ran out (a tx.abandon
	// span); Degraded counts traces whose slot quality was capped by the
	// session circuit breaker (a session.breaker span).
	Abandoned int              `json:"abandoned"`
	Degraded  int              `json:"degraded"`
	Stages    []stageStat      `json:"stages"`
	Slowest   []traceBreakdown `json:"slowest"`
}

// stageOrder ranks the canonical stages in pipeline order for stable output;
// unknown stages sort after them alphabetically.
var stageOrder = map[string]int{
	StageDecide:  0,
	StageBreaker: 1,
	StageAdmit:   2,
	StageFetch:   3,
	StageSend:    4,
	StageRetry:   5,
	StageAbandon: 6,
	StageAck:     7,
	StageRecv:    8,
	StageDecode:  9,
	StageDisplay: 10,
}

func stageLess(a, b string) bool {
	ra, oka := stageOrder[a]
	rb, okb := stageOrder[b]
	switch {
	case oka && okb:
		return ra < rb
	case oka:
		return true
	case okb:
		return false
	default:
		return a < b
	}
}

// outcomeBefore reports whether outcome a of stage sa yields to outcome b
// of stage sb as a trace's outcome.
func outcomeBefore(sa, a, sb, b string) bool {
	switch {
	case (sa == StageDisplay) != (sb == StageDisplay):
		return sb == StageDisplay
	case sa != sb:
		return stageLess(sa, sb)
	default:
		return a < b
	}
}

// quantile returns the nearest-rank q-quantile of sorted (ascending) values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Analyze aggregates spans into per-stage latency statistics, critical-path
// attribution and the topN slowest-trace exemplars.
func Analyze(spans []SpanRecord, topN int) *Analysis {
	if topN <= 0 {
		topN = 3
	}
	a := &Analysis{Spans: len(spans)}

	type traceAgg struct {
		user, slot uint32
		server     bool
		client     bool
		outcome    string
		outStage   string // the stage of the span outcome came from
		retries    int
		minStart   int64
		maxEnd     int64
		// stageNs sums each stage's spans in integer nanoseconds, so the
		// sum does not depend on the order the spans come in.
		stageNs map[string]int64
	}
	traces := make(map[uint64]*traceAgg)
	durs := make(map[string][]float64)

	for _, s := range spans {
		ns := max(s.EndNs-s.StartNs, 0)
		durs[s.Stage] = append(durs[s.Stage], float64(ns)/1e6)

		tr := traces[s.Trace]
		if tr == nil {
			tr = &traceAgg{user: s.User, slot: s.Slot,
				minStart: s.StartNs, maxEnd: s.EndNs,
				stageNs: make(map[string]int64)}
			traces[s.Trace] = tr
		}
		if s.StartNs < tr.minStart {
			tr.minStart = s.StartNs
		}
		if s.EndNs > tr.maxEnd {
			tr.maxEnd = s.EndNs
		}
		tr.stageNs[s.Stage] += ns
		switch s.Side {
		case SideServer:
			tr.server = true
		case SideClient:
			tr.client = true
		}
		// The display outcome wins; the server's ack outcome fills in when
		// no display span was captured. Between two others the later
		// stage wins, and within a stage the greater outcome, so the
		// verdict does not depend on the order of the spans.
		if s.Outcome != "" && (tr.outcome == "" || outcomeBefore(tr.outStage, tr.outcome, s.Stage, s.Outcome)) {
			tr.outcome, tr.outStage = s.Outcome, s.Stage
		}
		if s.Retry > tr.retries {
			tr.retries = s.Retry
		}
	}

	a.Traces = len(traces)
	critical := make(map[string]int)
	breakdowns := make([]traceBreakdown, 0, len(traces))
	for id, tr := range traces {
		if tr.server && tr.client {
			a.Stitched++
		}
		switch tr.outcome {
		case OutcomeDisplayed:
			a.Displayed++
		case OutcomeMissed:
			a.Missed++
		}
		if tr.retries > 0 {
			a.Retried++
		}
		if _, ok := tr.stageNs[StageAbandon]; ok {
			a.Abandoned++
		}
		if _, ok := tr.stageNs[StageBreaker]; ok {
			a.Degraded++
		}
		bd := traceBreakdown{
			Trace: id, User: tr.user, Slot: tr.slot,
			TotalMs: float64(tr.maxEnd-tr.minStart) / 1e6,
			Outcome: tr.outcome, Retries: tr.retries,
		}
		for stage, ns := range tr.stageNs {
			bd.Stages = append(bd.Stages, stageDur{Stage: stage, Ms: float64(ns) / 1e6})
		}
		sort.Slice(bd.Stages, func(i, j int) bool { return stageLess(bd.Stages[i].Stage, bd.Stages[j].Stage) })
		// The critical stage is the longest; a tie goes to the stage
		// earliest in the pipeline, which is the first in bd.Stages.
		crit := -1
		for i, sd := range bd.Stages {
			if crit < 0 || sd.Ms > bd.Stages[crit].Ms {
				crit = i
			}
		}
		if crit >= 0 {
			critical[bd.Stages[crit].Stage]++
		}
		breakdowns = append(breakdowns, bd)
	}

	for stage, ds := range durs {
		sort.Float64s(ds)
		total := 0.0
		for _, d := range ds {
			total += d
		}
		a.Stages = append(a.Stages, stageStat{
			Stage: stage, Count: len(ds),
			P50Ms: quantile(ds, 0.50), P95Ms: quantile(ds, 0.95),
			P99Ms: quantile(ds, 0.99), MaxMs: ds[len(ds)-1],
			TotalMs: total, Critical: critical[stage],
		})
	}
	// Sorted before summing, so the shares' denominator is the same sum
	// whatever order the map gave the stages in.
	sort.Slice(a.Stages, func(i, j int) bool { return stageLess(a.Stages[i].Stage, a.Stages[j].Stage) })
	totalAll := 0.0
	for _, st := range a.Stages {
		totalAll += st.TotalMs
	}
	for i := range a.Stages {
		if totalAll > 0 {
			a.Stages[i].Share = a.Stages[i].TotalMs / totalAll
		}
	}

	sort.Slice(breakdowns, func(i, j int) bool {
		if breakdowns[i].TotalMs != breakdowns[j].TotalMs {
			return breakdowns[i].TotalMs > breakdowns[j].TotalMs
		}
		return breakdowns[i].Trace < breakdowns[j].Trace
	})
	if len(breakdowns) > topN {
		breakdowns = breakdowns[:topN]
	}
	a.Slowest = breakdowns
	return a
}

// Format renders the analysis as the report collabvr-inspect spans prints.
func (a *Analysis) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# span analysis: %d spans, %d traces (%d stitched server+client, %d retried)\n",
		a.Spans, a.Traces, a.Stitched, a.Retried)
	if a.Abandoned+a.Degraded > 0 {
		fmt.Fprintf(&b, "# resilience: %d traces abandoned after retry budget, %d breaker-degraded slots\n",
			a.Abandoned, a.Degraded)
	}
	if a.Displayed+a.Missed > 0 {
		fmt.Fprintf(&b, "# outcomes: %d displayed, %d missed (%.2f%% deadline miss)\n",
			a.Displayed, a.Missed, 100*float64(a.Missed)/float64(a.Displayed+a.Missed))
	}
	fmt.Fprintf(&b, "%-14s %8s %10s %10s %10s %10s %7s %9s\n",
		"stage", "count", "p50(ms)", "p95(ms)", "p99(ms)", "max(ms)", "share", "critical")
	for _, s := range a.Stages {
		fmt.Fprintf(&b, "%-14s %8d %10.3f %10.3f %10.3f %10.3f %6.1f%% %9d\n",
			s.Stage, s.Count, s.P50Ms, s.P95Ms, s.P99Ms, s.MaxMs, 100*s.Share, s.Critical)
	}
	for i, bd := range a.Slowest {
		fmt.Fprintf(&b, "slowest[%d] trace=%016x user=%d slot=%d total=%.3fms outcome=%s retries=%d\n",
			i, bd.Trace, bd.User, bd.Slot, bd.TotalMs, bd.Outcome, bd.Retries)
		for _, sd := range bd.Stages {
			fmt.Fprintf(&b, "  %-14s %10.3fms\n", sd.Stage, sd.Ms)
		}
	}
	return b.String()
}

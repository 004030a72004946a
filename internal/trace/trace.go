// Package trace is the request-scoped tracing layer of the reproduction: an
// allocation-conscious span tracer that follows one tile request through its
// whole lifecycle — slot decision (knapsack solve), budget admission, tile
// fetch, transport send, ACK/NACK/retry, client receive, decode and the
// display-deadline outcome. Trace IDs are derived deterministically from
// (epoch, user, slot) and propagated through transport packet headers, so
// the server and client halves of a request stitch into one trace even
// across reconnects and NACK retransmissions.
//
// Everything is nil-safe, mirroring package obs: a nil *Tracer hands out nil
// spans, and every method on a nil *Tracer or nil *Span is an
// allocation-free no-op, so instrumented hot paths cost a pointer check when
// tracing is disabled. Enabled spans are pooled (sync.Pool) and exported by
// value into a preallocated ring, so the steady-state enabled path does not
// allocate either.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span stages, in pipeline order. The server half of a tile request runs
// decide -> admit -> fetch -> send (and ack/retry as feedback arrives); the
// client half runs recv -> decode -> display.
const (
	StageDecide  = "slot.decide"     // knapsack solve over the slot's active set
	StageAdmit   = "budget.admit"    // per-user level admission + ledger filtering
	StageFetch   = "tile.fetch"      // tile payload fetch/encode from the store
	StageSend    = "tx.send"         // transport pacing + UDP writes of the batch
	StageRetry   = "tx.retry"        // NACK-driven retransmission of lost tiles
	StageAbandon = "tx.abandon"      // retry budget exhausted: tile given up on
	StageAck     = "tx.ack"          // ACK ingest: estimators + QoE fold-in
	StageBreaker = "session.breaker" // circuit breaker capped the slot's quality
	StageRecv    = "rx.recv"         // first-to-last fragment arrival window
	StageDecode  = "rx.decode"       // decoder-pool admission
	StageDisplay = "rx.display"      // display-deadline outcome
)

// Span sides: which half of the system emitted the span.
const (
	SideServer = "server"
	SideClient = "client"
)

// Span outcomes for stages that resolve a frame's fate.
const (
	OutcomeDisplayed = "displayed"
	OutcomeMissed    = "missed"
)

// SpanRecord is the exported span schema, one JSON line per span. Both the
// live loopback engine and the virtual-time engine emit this exact schema;
// collabvr-inspect spans consumes it.
type SpanRecord struct {
	Trace   uint64 `json:"trace"`
	Span    uint64 `json:"span"`
	Stage   string `json:"stage"`
	Side    string `json:"side"`
	Algo    string `json:"algo,omitempty"`
	User    uint32 `json:"user"`
	Slot    uint32 `json:"slot"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Level   int    `json:"level,omitempty"`
	Tiles   int    `json:"tiles,omitempty"`
	Bytes   int    `json:"bytes,omitempty"`
	Retry   int    `json:"retry,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Err     string `json:"err,omitempty"`
}

// TileTraceID derives the trace ID of one tile request deterministically
// from (epoch, user, slot) via a splitmix64 finalizer. Both halves of the
// system compute the same ID for the same request — the server when it
// decides the slot, the client from the ID carried in the packet header —
// which is what lets a trace survive reconnects, session supersede and NACK
// retransmission without any per-connection state. The result is never 0
// (0 means "untraced" on the wire).
func TileTraceID(epoch uint64, user, slot uint32) uint64 {
	x := epoch ^ (uint64(user)<<32 | uint64(slot))
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		return 1
	}
	return x
}

// Options configures a Tracer.
type Options struct {
	// Sample keeps 1 in Sample traces (deterministically, by trace ID);
	// 0 or 1 keeps every trace.
	Sample uint64
	// Clock supplies span timestamps in nanoseconds. Nil means wall clock
	// (time.Now().UnixNano()); the virtual-time engines inject a virtual
	// clock instead.
	Clock func() int64
	// Exporter receives finished spans. Nil means a default ring-only
	// exporter (no JSONL writer).
	Exporter *Exporter
}

// Tracer creates spans. A nil *Tracer is the disabled tracer: Start returns
// nil and every span method on the nil span is an allocation-free no-op.
type Tracer struct {
	clock  func() int64
	sample uint64
	exp    *Exporter
	seq    atomic.Uint64
	pool   sync.Pool

	started    atomic.Uint64 // Start calls on traced requests (pre-sampling)
	sampledOut atomic.Uint64 // Start calls suppressed by sampling
}

// New builds a tracer.
func New(opts Options) *Tracer {
	if opts.Clock == nil {
		opts.Clock = func() int64 { return time.Now().UnixNano() }
	}
	if opts.Exporter == nil {
		opts.Exporter = NewExporter(ExporterOptions{})
	}
	if opts.Sample == 0 {
		opts.Sample = 1
	}
	t := &Tracer{clock: opts.Clock, sample: opts.Sample, exp: opts.Exporter}
	t.pool.New = func() any { return new(Span) }
	return t
}

// Enabled reports whether spans will be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Exporter returns the tracer's exporter (nil on a nil tracer).
func (t *Tracer) Exporter() *Exporter {
	if t == nil {
		return nil
	}
	return t.exp
}

// Now returns the tracer's clock reading (0 on a nil tracer). Use it to
// capture stage boundaries that several spans share, e.g. the slot solve
// interval recorded into every planned user's trace.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// sampled reports whether the given trace ID survives the sampling filter.
func (t *Tracer) sampled(traceID uint64) bool {
	if t == nil || traceID == 0 {
		return false
	}
	return t.sample <= 1 || traceID%t.sample == 0
}

// startedCount and sampledOutCount return the tracer's span-creation counters.
func (t *Tracer) startedCount() uint64 {
	if t == nil {
		return 0
	}
	return t.started.Load()
}

// sampledOutCount returns the number of Start calls suppressed by sampling.
func (t *Tracer) sampledOutCount() uint64 {
	if t == nil {
		return 0
	}
	return t.sampledOut.Load()
}

// Start opens a span at the tracer's current clock. It returns nil — an
// inert span — when the tracer is disabled, the trace ID is 0 (untraced on
// the wire), or the trace is sampled out.
func (t *Tracer) Start(traceID uint64, stage, side string, user, slot uint32) *Span {
	if t == nil {
		return nil
	}
	return t.StartAt(traceID, stage, side, user, slot, t.clock())
}

// StartAt opens a span with an explicit start timestamp (virtual-time
// engines and arrival-window spans use it).
func (t *Tracer) StartAt(traceID uint64, stage, side string, user, slot uint32, startNs int64) *Span {
	if t == nil || traceID == 0 {
		return nil
	}
	t.started.Add(1)
	if t.sample > 1 && traceID%t.sample != 0 {
		t.sampledOut.Add(1)
		return nil
	}
	sp := t.pool.Get().(*Span)
	sp.t = t
	sp.rec = SpanRecord{
		Trace:   traceID,
		Span:    t.seq.Add(1),
		Stage:   stage,
		Side:    side,
		User:    user,
		Slot:    slot,
		StartNs: startNs,
	}
	return sp
}

// Span is one in-flight stage of a trace. All methods are no-ops on a nil
// span, so call sites never branch on whether tracing is enabled.
type Span struct {
	t   *Tracer
	rec SpanRecord
}

// SetLevel records the quality level the stage handled.
func (sp *Span) SetLevel(level int) {
	if sp != nil {
		sp.rec.Level = level
	}
}

// SetTiles records the tile count the stage handled.
func (sp *Span) SetTiles(n int) {
	if sp != nil {
		sp.rec.Tiles = n
	}
}

// SetBytes records the payload bytes the stage handled.
func (sp *Span) SetBytes(n int) {
	if sp != nil {
		sp.rec.Bytes = n
	}
}

// SetRetry records the retransmission count of the stage.
func (sp *Span) SetRetry(n int) {
	if sp != nil {
		sp.rec.Retry = n
	}
}

// SetAlgo labels the span with the allocator that decided it.
func (sp *Span) SetAlgo(name string) {
	if sp != nil {
		sp.rec.Algo = name
	}
}

// SetOutcome records the frame's fate (OutcomeDisplayed or OutcomeMissed).
func (sp *Span) SetOutcome(outcome string) {
	if sp != nil {
		sp.rec.Outcome = outcome
	}
}

// SetErr records a stage failure.
func (sp *Span) SetErr(msg string) {
	if sp != nil {
		sp.rec.Err = msg
	}
}

// End closes the span at the tracer's current clock and exports it. The
// span must not be used afterwards (it returns to the pool).
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.EndAt(sp.t.clock())
}

// EndAt closes the span at an explicit timestamp and exports it.
func (sp *Span) EndAt(endNs int64) {
	if sp == nil {
		return
	}
	sp.rec.EndNs = endNs
	t := sp.t
	t.exp.Put(&sp.rec)
	sp.t = nil
	t.pool.Put(sp)
}

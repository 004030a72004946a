package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/trace"
)

// telemetry is the set of existing seams a traced run switches on. A nil
// *telemetry is an end-to-end run: every hook the program offers stays nil.
type telemetry struct {
	reg    *obs.Registry
	tracer *trace.Tracer
	log    *spanLog // one "core.solve" span per allocator call
	pacing *pacingTimer
}

// traceRing bounds the spans a traced run keeps: a live segment emits about
// nine per session-slot, and the ring keeps the newest.
const traceRing = 1 << 17

// newTelemetry builds the seams for one traced segment. sample keeps one in
// that many trace IDs (the sim engines emit four spans per session-slot).
func newTelemetry(log *spanLog, sample uint64) *telemetry {
	return &telemetry{
		reg: obs.NewRegistry(),
		tracer: trace.New(trace.Options{
			Sample:   sample,
			Exporter: trace.NewExporter(trace.ExporterOptions{RingSize: traceRing}),
		}),
		log:    log,
		pacing: &pacingTimer{},
	}
}

func (t *telemetry) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

func (t *telemetry) tracing() *trace.Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// newAllocator returns the allocator factory the sim engines get: the
// production solver, wrapped by the solve timer in a traced run.
func (t *telemetry) newAllocator() func() core.Allocator {
	if t == nil {
		return nil // the engines' default is core.NewSolverAllocator
	}
	return func() core.Allocator {
		return &timedAllocator{inner: core.NewSolverAllocator(), log: t.log}
	}
}

// timedAllocator records one span per solve, wherever the program makes it
// (the server's slot loop, the sim engines' serial solve). It forwards
// AllocateShared as well: the server and load.Simulate take their zero-copy
// path only when the allocator offers it, and a wrapper that hid it would
// silently change the code under measurement.
type timedAllocator struct {
	inner *core.SolverAllocator
	log   *spanLog
}

const solveSpan = "core.solve"

func (a *timedAllocator) Name() string { return a.inner.Name() }

func (a *timedAllocator) Allocate(params core.Params, p *core.SlotProblem) core.Allocation {
	sp := a.log.begin(solveSpan, -1)
	out := a.inner.Allocate(params, p)
	a.log.end(sp, len(p.Users))
	return out
}

func (a *timedAllocator) AllocateShared(params core.Params, p *core.SlotProblem) core.Allocation {
	sp := a.log.begin(solveSpan, -1)
	out := a.inner.AllocateShared(params, p)
	a.log.end(sp, len(p.Users))
	return out
}

var _ core.SharedAllocator = (*timedAllocator)(nil)

// runtimeDelta is the Go runtime's share of a traced segment.
type runtimeDelta struct{ before runtime.MemStats }

func startRuntimeDelta() *runtimeDelta {
	d := &runtimeDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

func (d *runtimeDelta) into(out map[string]float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	out["runtime.gc_cycles"] = float64(after.NumGC - d.before.NumGC)
	out["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-d.before.PauseTotalNs) / 1e6
	out["runtime.heap_peak_mb"] = float64(after.HeapSys) / (1 << 20)
}

// solveLayers reports the in-situ solve cost against the segment's CPU time.
func (t *telemetry) solveLayers(out map[string]float64, cpu time.Duration) {
	ns := t.log.durations(solveSpan)
	out["core.solve_insitu_ns"] = median(ns)
	if cpu > 0 {
		total := 0.0
		for _, v := range ns {
			total += v
		}
		out["core.solve_share"] = total / float64(cpu)
	}
	out["trace.spans_dropped"] = float64(t.tracer.Exporter().Dropped())
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// liveLayers reads the server's and clients' own instruments after a traced
// live segment.
func (t *telemetry) liveLayers(out map[string]float64, sessionSlots int) {
	c := func(name string) float64 { return float64(t.reg.Counter(name).Value()) }
	h := func(name string) *obs.Histogram { return t.reg.Histogram(name, nil) }
	kslots := float64(sessionSlots) / 1000

	decide := h("collabvr_server_slot_decision_ms")
	out["server.slot_decide_ms_p50"] = decide.Quantile(0.50)
	out["server.slot_decide_ms_p99"] = decide.Quantile(0.99)
	out["server.slot_overrun_frac"] = ratio(c("collabvr_server_slot_deadline_miss_total"), c("collabvr_server_slots_total"))
	sent, skipped := c("collabvr_server_tiles_sent_total"), c("collabvr_server_tiles_skipped_total")
	out["server.tiles_per_slot"] = ratio(sent, float64(sessionSlots))
	out["server.suppressed_frac"] = ratio(skipped, sent+skipped)
	out["server.retransmit_frac"] = ratio(c("collabvr_server_retransmit_tiles_total"), sent)
	out["server.retry_abandoned"] = c("collabvr_server_retry_abandoned_tiles_total")
	hits, misses := c("collabvr_server_tile_cache_hits_total"), c("collabvr_server_tile_cache_misses_total")
	out["server.store_hit_ratio"] = ratio(hits, hits+misses)
	out["server.tx_bytes_per_slot"] = ratio(c("collabvr_server_tx_bytes_total"), float64(sessionSlots))
	dropped := c("collabvr_server_tx_dropped_total")
	out["server.tx_dropped_frac"] = ratio(dropped, dropped+c("collabvr_server_tx_packets_total"))
	out["server.cap_est_err_p50"] = h("collabvr_server_cap_estimate_rel_error").Quantile(0.50)
	out["netem.pacing_wait_ms_per_kslot"] = ratio(float64(t.pacing.waitNs.Load())/1e6, kslots)

	delay := h("collabvr_client_slot_delay_ms")
	out["client.slot_delay_ms_p50"] = delay.Quantile(0.50)
	out["client.slot_delay_ms_p99"] = delay.Quantile(0.99)
	out["client.setup_ms_p50"] = h("collabvr_client_setup_ms").Quantile(0.50)
	tilesRx := c("collabvr_client_tiles_received_total")
	incomplete := c("collabvr_client_rx_incomplete_tiles_dropped_total")
	out["client.rx_incomplete_frac"] = ratio(incomplete, tilesRx+incomplete)
	out["client.rx_duplicate_frac"] = ratio(c("collabvr_client_rx_duplicate_fragments_total"), c("collabvr_server_tx_packets_total"))
	out["client.nack_tiles_per_kslot"] = ratio(c("collabvr_client_nack_tiles_total"), kslots)
	t.stageLayers(out)
}

// stageLayers summarises the program's own request spans: trace.Analyze
// gives the per-stage percentiles, and the decide-start to display-end
// interval of each trace ID is the request's end-to-end time.
func (t *telemetry) stageLayers(out map[string]float64) {
	spans := t.tracer.Exporter().Recent(traceRing)
	stageMetric := map[string]string{
		trace.StageDecide:  "trace.decide_ms",
		trace.StageAdmit:   "trace.admit_ms",
		trace.StageFetch:   "trace.fetch_ms",
		trace.StageSend:    "trace.send_ms",
		trace.StageRetry:   "trace.retry_ms",
		trace.StageAck:     "trace.ack_ms",
		trace.StageRecv:    "trace.recv_ms",
		trace.StageDecode:  "trace.decode_ms",
		trace.StageDisplay: "trace.display_ms",
	}
	for _, st := range trace.Analyze(spans, 1).Stages {
		if name, ok := stageMetric[st.Stage]; ok {
			out[name+"_p50"] = st.P50Ms
			if st.Stage == trace.StageSend {
				out[name+"_p99"] = st.P99Ms
			}
		}
	}
	type window struct{ decide, display int64 }
	byTrace := make(map[uint64]*window)
	for _, s := range spans {
		w := byTrace[s.Trace]
		if w == nil {
			w = &window{}
			byTrace[s.Trace] = w
		}
		switch s.Stage {
		case trace.StageDecide:
			w.decide = s.StartNs
		case trace.StageDisplay:
			w.display = s.EndNs
		}
	}
	var e2e []float64
	for _, w := range byTrace {
		if w.decide > 0 && w.display > w.decide {
			e2e = append(e2e, float64(w.display-w.decide)/1e6)
		}
	}
	out["trace.e2e_ms_p50"] = percentile(e2e, 0.50)
	out["trace.e2e_ms_p99"] = percentile(e2e, 0.99)
}

// fleetLayers copies the control plane's exact-per-seed counts of one pass
// (the registry counted every pass of the segment).
func (t *telemetry) fleetLayers(out map[string]float64, rep *load.FleetReport, passes int) {
	out["fleet.placements"] = float64(rep.Placements)
	out["fleet.placements_failed"] = float64(rep.PlacementsFailed)
	out["fleet.migrations"] = float64(rep.Migrations)
	out["fleet.rebalances"] = float64(rep.Rebalances)
	out["fleet.outage_slots"] = float64(rep.OutageSlots)
	out["fleet.evacuations"] = float64(rep.Evacuations)
	if c := rep.Coord; c != nil {
		out["coord.commits"] = float64(c.Commits)
		out["coord.rejected"] = float64(c.Rejected)
		out["coord.elections"] = float64(c.Elections)
		out["coord.leaderless_slots"] = float64(c.LeaderlessSlots)
	}
	out["obs.slo_page_transitions"] = ratio(float64(t.reg.Counter("collabvr_slo_page_transitions_total").Value()), float64(passes))
	out["obs.breaker_degraded_slots"] = float64(rep.DegradedSlots)
}

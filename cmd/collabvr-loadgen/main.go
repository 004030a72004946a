// Command collabvr-loadgen generates session-churn workloads and runs them
// against the edge server — either in deterministic virtual time (-mode sim)
// or over real loopback sockets with one emulated client per session
// (-mode live). It can record a workload to JSONL, replay a recorded one
// bit-identically, verify the record/replay round trip, and binary-search the
// server's session capacity against a deadline-miss target.
//
// Usage:
//
//	collabvr-loadgen -arrivals poisson -rate 20 -mean-hold 3 -slots 1200
//	collabvr-loadgen -arrivals steady -sessions 500 -mode live -slotms 50
//	collabvr-loadgen -record w.jsonl -check-replay
//	collabvr-loadgen -replay w.jsonl
//	collabvr-loadgen -find-capacity -miss-target 0.01 -budget 120
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "collabvr-loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("collabvr-loadgen", flag.ContinueOnError)
	var (
		arrivals = fs.String("arrivals", "steady", "arrival shape: steady, poisson, mmpp, flash, diurnal")
		sessions = fs.Int("sessions", 100, "session count (steady: exact; stochastic shapes: cap, 0 = uncapped)")
		rate     = fs.Float64("rate", 10, "mean arrival rate per second (stochastic shapes)")
		meanHold = fs.Float64("mean-hold", 0, "mean session duration in seconds (0 = whole horizon)")
		slots    = fs.Int("slots", 600, "workload horizon in slots")
		sps      = fs.Float64("sps", 60, "slots per second on the workload timeline")
		slotMs   = fs.Float64("slotms", 0, "live-mode wall-clock slot duration in ms (0 = 1000/sps)")
		seed     = fs.Int64("seed", 1, "workload seed (same seed, same workload, byte for byte)")

		algo   = fs.String("algo", "dvgreedy", "allocator: "+strings.Join(baseline.AllocatorNames(), ", "))
		budget = fs.Float64("budget", 400, "server throughput budget B(t) in Mbps (fleet-wide when -shards > 1)")

		shards       = fs.Int("shards", 1, "run against a sharded fleet of this many servers (1 = single server)")
		scorer       = fs.String("scorer", "least-loaded", "fleet placement scorer: least-loaded, locality, slo-burn")
		coordinators = fs.Int("coordinators", 1, "replicated coordinator size for the fleet owner map (1 = single, no replication cost)")
		alpha        = fs.Float64("alpha", 0.1, "QoE delay weight")
		beta         = fs.Float64("beta", 0.5, "QoE variance weight")

		mode        = fs.String("mode", "sim", "execution engine: sim (virtual time) or live (loopback sockets)")
		maxSessions = fs.Int("max-sessions", 0, "live-mode server accept limit, excess rejected (0 = unlimited)")
		record      = fs.String("record", "", "write the workload to this JSONL file")
		recordPoses = fs.Bool("record-poses", false, "include per-slot pose events in the recorded JSONL")
		replay      = fs.String("replay", "", "replay a recorded workload instead of generating one")
		checkReplay = fs.Bool("check-replay", false, "verify the record/replay round trip is bit-identical, then run")

		findCap    = fs.Bool("find-capacity", false, "binary-search max concurrent sessions under -miss-target")
		missTarget = fs.Float64("miss-target", 0.01, "capacity-search deadline-miss rate target")
		capLo      = fs.Int("cap-lo", 1, "capacity-search floor (sessions)")
		capHi      = fs.Int("cap-hi", 1024, "capacity-search ceiling (sessions)")

		chaosPath  = fs.String("chaos", "", "chaos profile JSON injecting faults into the run (enables SLO + breaker)")
		chaosCheck = fs.Bool("chaos-check", false, "validate the -chaos profile, print its schedule, and exit")
		drainT     = fs.Duration("drain-timeout", 0, "live mode: gracefully drain the server for up to this long before closing (0 = immediate close)")
		reconnect  = fs.Bool("reconnect", false, "live mode: clients redial the control channel when it drops")
		httpAddr   = fs.String("http", "", "observability HTTP listen address serving /metrics (empty = disabled)")
		debug      = fs.Bool("debug", false, "expose pprof, /debug/runtime and runtime gauges on the -http mux")
		spanOut    = fs.String("span-out", "", "write end-to-end request spans to this JSONL file (analyze with collabvr-spans)")
		spanSample = fs.Uint64("span-sample", 1, "keep 1 in N traces (deterministic by trace ID; 0 or 1 = all)")
		sloOn      = fs.Bool("slo", false, "track per-session QoE SLO burn rates (served on /debug/slo with -http)")
		verbose    = fs.Bool("v", false, "verbose logging")

		healthOut   = fs.String("health-out", "", "sim mode: write the health-plane time-series export to this JSONL file (analyze with collabvr-health)")
		healthEvery = fs.Int("health-every", 1, "sim mode: registry/SLO sampling cadence in slots")
		evacOn      = fs.Bool("evac", false, "sim mode, -shards > 1: enable the SLO-pressure evacuation loop (implies -slo)")

		decisionsOut = fs.String("decisions-out", "", "sim mode: write one decision record per allocated slot to this JSONL file (analyze with collabvr-regret)")
		slotsRing    = fs.Int("slots-ring", 1024, "decision flight-recorder ring capacity (served with capacity and drop count on /debug/slots with -http)")
		counterK     = fs.Int("counterfactual-k", 0, "sim mode: record the top-K unchosen upgrades per decision (0 = off)")
		regretRef    = fs.Bool("regret-ref", false, "sim mode: score every recorded decision against the per-slot DP optimum (fills the regret fields; slower)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	newAlloc, err := baseline.Constructor(*algo)
	if err != nil {
		return err
	}
	if *mode != "sim" && *mode != "live" {
		return fmt.Errorf("unknown mode %q (want sim or live)", *mode)
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1")
	}
	if *shards > 1 {
		if _, err := fleet.ScorerByName(*scorer); err != nil {
			return err
		}
	}
	params := core.DefaultSystemParams()
	params.Alpha = *alpha
	params.Beta = *beta

	var chaosProf *chaos.Profile
	if *chaosPath != "" {
		var err error
		chaosProf, err = chaos.LoadProfile(*chaosPath)
		if err != nil {
			return err
		}
		if chaosProf.HasShardFaults() && *shards == 1 {
			return fmt.Errorf("chaos profile %q has shard faults; run with -shards > 1 (or use collabvr-fleet)", chaosProf.Name)
		}
		if chaosProf.HasCoordFaults() && *shards == 1 {
			return fmt.Errorf("chaos profile %q has coordinator faults; run with -shards > 1 (or use collabvr-fleet)", chaosProf.Name)
		}
		if m := chaosProf.MaxReplica(); m >= *coordinators {
			return fmt.Errorf("chaos profile %q targets coordinator replica %d; run with -coordinators > %d", chaosProf.Name, m, m)
		}
	}
	if *chaosCheck {
		if chaosProf == nil {
			return fmt.Errorf("-chaos-check needs -chaos <profile.json>")
		}
		fmt.Fprint(out, chaosProf.Summary())
		return nil
	}

	base := load.Config{
		Shape:          load.Shape(*arrivals),
		Seed:           *seed,
		HorizonSlots:   *slots,
		SlotsPerSecond: *sps,
		Sessions:       *sessions,
		RatePerSec:     *rate,
		MeanHoldSec:    *meanHold,
	}

	wantHealth := *healthOut != "" || *evacOn
	if wantHealth && *mode != "sim" {
		return fmt.Errorf("-health-out/-evac need -mode sim (the live server samples via its own -health endpoint)")
	}
	if *evacOn && *shards < 2 {
		return fmt.Errorf("-evac needs -shards > 1 (the loop migrates sessions between shards)")
	}

	reg := obs.NewRegistry()
	var slo *obs.SLOMonitor
	// A chaos campaign implies SLO tracking and the circuit breaker: the
	// resilience path is SLO state -> breaker cap, so running faults without
	// them would measure nothing. The evacuation loop's pressure signal is
	// SLO page state, so -evac implies it too.
	if *sloOn || chaosProf != nil || *evacOn {
		slo = obs.NewSLOMonitor(obs.DefaultSLOConfig(), reg)
	}
	var brk *obs.Breaker
	if chaosProf != nil {
		bcfg := obs.DefaultBreakerConfig()
		bcfg.Levels = params.Levels
		brk = obs.NewBreaker(bcfg, reg)
	}
	recordDecisions := *decisionsOut != "" || *counterK > 0 || *regretRef
	if recordDecisions && *mode != "sim" {
		return fmt.Errorf("-decisions-out/-counterfactual-k/-regret-ref need -mode sim (the live server records via its own -http endpoint)")
	}
	var (
		rec       *obs.Recorder
		attr      *obs.RegretAttributor
		decisions *os.File
	)
	if *mode == "sim" && (recordDecisions || *httpAddr != "") {
		attr = obs.NewRegretAttributor(obs.RegretAttributorOptions{Registry: reg})
		ropts := obs.RecorderOptions{RingSize: *slotsRing, Attributor: attr}
		if *decisionsOut != "" {
			var err error
			decisions, err = os.Create(*decisionsOut)
			if err != nil {
				return fmt.Errorf("decision export: %w", err)
			}
			defer decisions.Close()
			ropts.Writer = decisions
		}
		rec = obs.NewRecorder(ropts)
	}
	// Health plane: one store for both the fleet series (fed by the fleet
	// engine) and the registry/SLO samples (fed by the sampler on the
	// virtual slot clock).
	var (
		healthStore   *tsdb.Store
		healthSampler *tsdb.Sampler
	)
	if wantHealth {
		healthStore = tsdb.New(tsdb.Options{})
		healthSampler = tsdb.NewSampler(tsdb.SamplerOptions{
			Store:      healthStore,
			Registry:   reg,
			SLO:        slo,
			EverySlots: *healthEvery,
		})
	}
	var (
		tracer  *trace.Tracer
		spanExp *trace.Exporter
	)
	if *spanOut != "" {
		f, err := os.Create(*spanOut)
		if err != nil {
			return fmt.Errorf("span export: %w", err)
		}
		defer f.Close()
		// The virtual-time engine exports synchronously (deterministic
		// ordering, nothing can drop); the live engine uses the async queue
		// to keep JSON encoding off the pipeline hot path.
		spanExp = trace.NewExporter(trace.ExporterOptions{Writer: f, Sync: *mode == "sim"})
		tracer = trace.New(trace.Options{Sample: *spanSample, Exporter: spanExp})
	}
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("observability listen: %w", err)
		}
		defer ln.Close()
		mopts := obs.MuxOptions{SLO: slo, Regret: attr, Debug: *debug}
		if healthStore != nil {
			mopts.Health = tsdb.Handler(healthStore, nil)
		}
		go http.Serve(ln, obs.NewMuxOpts(reg, rec, mopts))
		fmt.Fprintf(out, "observability on http://%s/metrics\n", ln.Addr())
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}

	slotDur := time.Duration(0)
	if *slotMs > 0 {
		slotDur = time.Duration(*slotMs * float64(time.Millisecond))
	}
	// Fleet dispatch: -shards > 1 routes the run through the sharded
	// engines; the last fleet report is kept for the fleet addendum.
	var fleetRep *load.FleetReport
	execute := func(w *load.Workload, r *obs.Registry) (*load.RunReport, error) {
		if *mode == "live" {
			lcfg := load.LiveConfig{
				Params:       params,
				NewAllocator: newAlloc,
				AllocName:    *algo,
				BudgetMbps:   *budget,
				SlotDuration: slotDur,
				MaxSessions:  *maxSessions,
				Metrics:      r,
				Tracer:       tracer,
				TraceEpoch:   uint64(*seed),
				SLO:          slo,
				Chaos:        chaosProf,
				Breaker:      brk,
				Reconnect:    *reconnect,
				DrainTimeout: *drainT,
				Logf:         logf,
			}
			if chaosProf != nil {
				// Faults on the wire need the adaptive retransmission path;
				// the retry slot tracks the display-slot clock.
				retrySlot := slotDur
				if retrySlot <= 0 && *sps > 0 {
					retrySlot = time.Duration(float64(time.Second) / *sps)
				}
				lcfg.RetryPolicy = transport.DefaultRetryPolicy(retrySlot)
			}
			if *shards > 1 {
				frep, err := load.RunLiveFleet(w, load.FleetLiveConfig{
					Live:         lcfg,
					Shards:       *shards,
					Scorer:       *scorer,
					Coordinators: *coordinators,
				})
				if err != nil {
					return nil, err
				}
				fleetRep = frep
				return &frep.RunReport, nil
			}
			return load.RunLive(w, lcfg)
		}
		scfg := load.SimConfig{
			Params:       params,
			NewAllocator: newAlloc,
			AllocName:    *algo,
			BudgetMbps:   *budget,
			Metrics:      r,
			Tracer:       tracer,
			TraceEpoch:   uint64(*seed),
			SLO:          slo,
			Chaos:        chaosProf,
			Breaker:      brk,
		}
		// Decision recording applies to the measured run only, not to
		// capacity-search probes (which pass a nil registry). Same for
		// health sampling: probes must not pollute the exported series.
		if r != nil {
			scfg.Recorder = rec
			scfg.CounterfactualK = *counterK
			scfg.RegretRef = *regretRef
			scfg.Health = healthSampler
		}
		if *shards > 1 {
			fcfg := load.FleetSimConfig{
				Sim:          scfg,
				Shards:       *shards,
				Scorer:       *scorer,
				Coordinators: *coordinators,
			}
			if r != nil {
				fcfg.Health = healthStore
				if *evacOn {
					fcfg.Evac = fleet.EvacConfig{Enabled: true}
				}
			}
			frep, err := load.SimulateFleet(w, fcfg)
			if err != nil {
				return nil, err
			}
			fleetRep = frep
			return &frep.RunReport, nil
		}
		return load.Simulate(w, scfg)
	}

	if *findCap {
		probeWorkload := func(n int) (*load.Workload, error) {
			pcfg := base
			pcfg.Shape = load.Steady
			pcfg.Sessions = n
			pcfg.MeanHoldSec = 0 // capacity probes hold all n sessions concurrently
			return load.Generate(pcfg)
		}
		if *shards > 1 {
			// Fleet capacity is a two-knee search (fleet total + per-shard);
			// probes run the deterministic fleet engine regardless of -mode.
			probe := func(n, nShards int, globalBudget float64) (float64, error) {
				pw, err := probeWorkload(n)
				if err != nil {
					return 0, err
				}
				fcfg := load.FleetSimConfig{Shards: nShards, Scorer: *scorer}
				fcfg.Sim = load.SimConfig{
					Params:       params,
					NewAllocator: newAlloc,
					AllocName:    *algo,
					BudgetMbps:   globalBudget,
				}
				rep, err := load.SimulateFleet(pw, fcfg)
				if err != nil {
					return 0, err
				}
				miss := rep.AggregateMissRate()
				fmt.Fprintf(out, "probe %5d sessions x %d shard(s) @ %.0f Mbps: deadline-miss %.4f\n",
					n, nShards, globalBudget, miss)
				return miss, nil
			}
			res, err := load.FindFleetCapacity(*capLo, *capHi, *missTarget, *shards, *budget, probe)
			if err != nil {
				return err
			}
			fmt.Fprint(out, res.Format())
			return nil
		}
		probe := func(n int) (float64, error) {
			pw, err := probeWorkload(n)
			if err != nil {
				return 0, err
			}
			rep, err := execute(pw, nil)
			if err != nil {
				return 0, err
			}
			miss := rep.AggregateMissRate()
			fmt.Fprintf(out, "probe %5d sessions: deadline-miss %.4f\n", n, miss)
			return miss, nil
		}
		res, err := load.FindCapacity(*capLo, *capHi, *missTarget, probe)
		if err != nil {
			return err
		}
		fmt.Fprint(out, res.Format())
		return nil
	}

	var w *load.Workload
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		w, err = load.ReadJSONL(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "replaying %s: %d sessions, %d slots\n",
			*replay, len(w.Sessions), w.Cfg.HorizonSlots)
	} else {
		var err error
		w, err = load.Generate(base)
		if err != nil {
			return err
		}
	}

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			return err
		}
		err = w.WriteJSONL(f, *recordPoses)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "recorded %d sessions to %s\n", len(w.Sessions), *record)
	}

	if *checkReplay {
		if err := verifyReplay(w, *recordPoses, params, newAlloc, *budget); err != nil {
			return err
		}
		fmt.Fprintln(out, "replay check: OK (byte-identical JSONL, identical replayed report)")
	}

	rep, err := execute(w, reg)
	if err != nil {
		return err
	}
	if fleetRep != nil {
		fmt.Fprint(out, fleetRep.FormatFleet())
	} else {
		fmt.Fprint(out, rep.Format())
	}
	if spanExp != nil {
		if err := spanExp.Close(); err != nil {
			return fmt.Errorf("span export: %w", err)
		}
		fmt.Fprintf(out, "spans: exported %d dropped %d to %s\n",
			spanExp.Exported(), spanExp.Dropped(), *spanOut)
	}
	if rec != nil && rec.Records() > 0 {
		fmt.Fprintf(out, "decisions: recorded %d slots (ring %d, dropped %d)\n",
			rec.Records(), rec.RingCapacity(), rec.Dropped())
		if *decisionsOut != "" {
			fmt.Fprintf(out, "decisions: exported to %s\n", *decisionsOut)
		}
		if *regretRef {
			regRep := attr.Report()
			fmt.Fprintf(out, "regret: total %.5f, attributed %.1f%% across %d rows (full report: collabvr-regret %s)\n",
				regRep.TotalRegret, 100*regRep.AttributedFraction, regRep.Rows, *decisionsOut)
		}
	}
	if fleetRep != nil && *evacOn {
		fmt.Fprintf(out, "evac: %d session(s) moved in %d batch(es)\n",
			fleetRep.Evacuations, fleetRep.EvacBatches)
	}
	if *healthOut != "" {
		f, err := os.Create(*healthOut)
		if err != nil {
			return fmt.Errorf("health export: %w", err)
		}
		err = healthStore.WriteJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("health export: %w", err)
		}
		fmt.Fprintf(out, "health: exported %d series to %s\n", healthStore.Len(), *healthOut)
	}
	if slo != nil {
		fmt.Fprintf(out, "slo: warn transitions %d, page transitions %d\n",
			reg.Counter("collabvr_slo_warn_transitions_total").Value(),
			reg.Counter("collabvr_slo_page_transitions_total").Value())
	}
	if chaosProf != nil {
		fmt.Fprintf(out, "chaos %q: breaker transitions degraded %d, open %d, close %d\n",
			chaosProf.Name,
			reg.Counter("collabvr_breaker_degraded_transitions_total").Value(),
			reg.Counter("collabvr_breaker_open_transitions_total").Value(),
			reg.Counter("collabvr_breaker_close_transitions_total").Value())
		if start, end := faultWindow(chaosProf); end > 0 && end < len(rep.SlotQuality) {
			fmt.Fprintf(out, "chaos recovery: mean slot quality %.3f in fault window [%d,%d), %.3f after\n",
				rep.MeanSlotQuality(start, end), start, end,
				rep.MeanSlotQuality(end, len(rep.SlotQuality)))
		}
	}
	return nil
}

// faultWindow returns the earliest start and latest bounded end slot across
// the profile's faults (end 0 when every fault is open-ended).
func faultWindow(p *chaos.Profile) (start, end int) {
	end = p.EndSlot()
	if end == 0 {
		return 0, 0
	}
	start = end
	for i := range p.Faults {
		if p.Faults[i].StartSlot < start {
			start = p.Faults[i].StartSlot
		}
	}
	return start, end
}

// verifyReplay proves the record/replay loop is lossless: serializing the
// workload, reading it back, and serializing again must give identical bytes,
// and simulating the original and the round-tripped workload must give the
// identical report.
func verifyReplay(w *load.Workload, poses bool, params core.Params,
	newAlloc func() core.Allocator, budget float64) error {
	var b1 bytes.Buffer
	if err := w.WriteJSONL(&b1, poses); err != nil {
		return fmt.Errorf("replay check: %w", err)
	}
	w2, err := load.ReadJSONL(bytes.NewReader(b1.Bytes()))
	if err != nil {
		return fmt.Errorf("replay check: %w", err)
	}
	var b2 bytes.Buffer
	if err := w2.WriteJSONL(&b2, poses); err != nil {
		return fmt.Errorf("replay check: %w", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		return fmt.Errorf("replay check: JSONL round trip is not byte-identical (%d vs %d bytes)",
			b1.Len(), b2.Len())
	}
	simCfg := load.SimConfig{Params: params, NewAllocator: newAlloc, BudgetMbps: budget}
	r1, err := load.Simulate(w, simCfg)
	if err != nil {
		return fmt.Errorf("replay check: %w", err)
	}
	r2, err := load.Simulate(w2, simCfg)
	if err != nil {
		return fmt.Errorf("replay check: %w", err)
	}
	if r1.Format() != r2.Format() {
		return fmt.Errorf("replay check: replayed workload produced a different report")
	}
	return nil
}

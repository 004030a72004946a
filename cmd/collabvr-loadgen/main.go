// Command collabvr-loadgen generates session-churn workloads and runs them
// against the edge server — either in deterministic virtual time (-mode sim)
// or over real loopback sockets with one emulated client per session
// (-mode live). It can record a workload to JSONL, replay a recorded one
// bit-identically, verify the record/replay round trip, and binary-search the
// server's session capacity against a deadline-miss target.
//
// With -shards > 1 the run goes to a sharded fleet: a scored router places
// arriving sessions, the coordinator rebalances the global budget B(t) across
// shards, and killed or draining shards migrate their sessions instead of
// dropping them. -verify-recovery then asserts that a shard or coordinator
// chaos campaign degrades instead of dropping, reproduces bit for bit and
// recovers.
//
// Usage:
//
//	collabvr-loadgen -arrivals poisson -rate 20 -mean-hold 3 -slots 1200
//	collabvr-loadgen -arrivals steady -sessions 500 -mode live -slotms 50
//	collabvr-loadgen -record w.jsonl -check-replay
//	collabvr-loadgen -replay w.jsonl
//	collabvr-loadgen -find-capacity -miss-target 0.01 -budget 120
//	collabvr-loadgen -shards 3 -sessions 9 -slots 1200 -seed 42 -chaos examples/chaos/fleet.json -verify-recovery
//	collabvr-loadgen -mode live -shards 2 -sessions 6 -slotms 10 -evac -health-out h.jsonl
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fleet/coord"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/trace"
	"repro/internal/transport"
)

// slotsPerSecond is the workload timeline's display rate: the paper's 60 FPS.
const slotsPerSecond = 60

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
		slotMs   = fs.Float64("slotms", 0, "live-mode wall-clock slot duration in ms (0 = 1000/60, the workload's display rate)")
		seed     = fs.Int64("seed", 1, "workload seed (same seed, same workload, byte for byte)")

		algo   = fs.String("algo", "dvgreedy", "allocator: "+strings.Join(baseline.AllocatorNames(), ", "))
		budget = fs.Float64("budget", 400, "server throughput budget B(t) in Mbps (fleet-wide when -shards > 1)")

		shards       = fs.Int("shards", 1, "run against a sharded fleet of this many servers (1 = single server)")
		scorer       = fs.String("scorer", "least-loaded", "fleet placement scorer: least-loaded, locality, slo-burn")
		coordinators = fs.Int("coordinators", 1, "replicated coordinator size for the fleet owner map (2f+1 tolerates f crashes; 1 = single, no replication cost)")

		mode        = fs.String("mode", "sim", "execution engine: sim (virtual time) or live (loopback sockets)")
		maxSessions = fs.Int("max-sessions", 0, "live-mode server accept limit, excess rejected (0 = unlimited)")
		record      = fs.String("record", "", "write the workload to this JSONL file")
		replay      = fs.String("replay", "", "replay a recorded workload instead of generating one")
		checkReplay = fs.Bool("check-replay", false, "verify the record/replay round trip is bit-identical, then run")

		findCap    = fs.Bool("find-capacity", false, "binary-search max concurrent sessions under -miss-target (fleet total and per-shard with -shards > 1)")
		missTarget = fs.Float64("miss-target", 0.01, "capacity-search deadline-miss rate target")
		capLo      = fs.Int("cap-lo", 1, "capacity-search floor (sessions)")
		capHi      = fs.Int("cap-hi", 1024, "capacity-search ceiling (sessions)")

		chaosPath      = fs.String("chaos", "", "chaos profile JSON injecting faults into the run (enables SLO + breaker)")
		chaosCheck     = fs.Bool("chaos-check", false, "validate the -chaos profile, print its schedule, and exit")
		verifyRecovery = fs.Bool("verify-recovery", false, "sim mode, -shards > 1: assert the shard/coordinator chaos campaign degrades-not-drops, reproduces bit-for-bit, and recovers tail quality to within 10% of fault-free")
		drainT         = fs.Duration("drain-timeout", 0, "live mode: gracefully drain the server for up to this long before closing (0 = immediate close)")
		reconnect      = fs.Bool("reconnect", false, "live mode: clients redial the control channel when it drops")
		httpAddr       = fs.String("http", "", "observability HTTP listen address serving /metrics, plus /debug/fleet and /debug/coord with -shards > 1 (empty = disabled)")
		spanOut        = fs.String("span-out", "", "write end-to-end request spans to this JSONL file (analyze with collabvr-inspect spans)")
		spanSample     = fs.Uint64("span-sample", 1, "keep 1 in N traces (deterministic by trace ID; 0 or 1 = all)")
		sloOn          = fs.Bool("slo", false, "track per-session QoE SLO burn rates (served on /debug/slo with -http)")
		verbose        = fs.Bool("v", false, "verbose logging")

		healthOut     = fs.String("health-out", "", "sim mode or -shards > 1: write the health-plane time-series export to this JSONL file (analyze with collabvr-inspect health)")
		evacOn        = fs.Bool("evac", false, "-shards > 1: enable the SLO-pressure evacuation loop (implies -slo)")
		placementsOut = fs.String("placements-out", "", "-shards > 1: write placement-decision records to this JSONL file")

		decisionsOut = fs.String("decisions-out", "", "sim mode: write one decision record per allocated slot to this JSONL file (analyze with collabvr-inspect regret)")
		counterK     = fs.Int("counterfactual-k", 0, "sim mode: record the top-K unchosen upgrades per decision (0 = off)")
		regretRef    = fs.Bool("regret-ref", false, "sim mode: score every recorded decision against the per-slot DP optimum (fills the regret fields; slower)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (the workload comes from flags or -replay)", fs.Args())
	}
	newAlloc, err := baseline.Constructor(*algo)
	if err != nil {
		return err
	}
	if _, err := fleet.ScorerByName(*scorer); err != nil {
		return err
	}
	params := core.DefaultSystemParams()

	var chaosProf *chaos.Profile
	if *chaosPath != "" {
		var err error
		chaosProf, err = chaos.LoadProfile(*chaosPath)
		if err != nil {
			return err
		}
		if (chaosProf.HasShardFaults() || chaosProf.HasCoordFaults()) && *shards == 1 {
			return fmt.Errorf("chaos profile %q has shard or coordinator faults; run with -shards > 1", chaosProf.Name)
		}
		if m := chaosProf.MaxShard(); m >= *shards {
			return fmt.Errorf("chaos profile %q targets shard %d but -shards is %d", chaosProf.Name, m, *shards)
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
	recordDecisions := *decisionsOut != "" || *counterK > 0 || *regretRef
	switch {
	case *mode != "sim" && *mode != "live":
		return fmt.Errorf("unknown mode %q (want sim or live)", *mode)
	case *shards < 1:
		return fmt.Errorf("-shards must be at least 1")
	case *evacOn && *shards < 2:
		return fmt.Errorf("-evac needs -shards > 1 (the loop migrates sessions between shards)")
	case *placementsOut != "" && *shards < 2:
		return fmt.Errorf("-placements-out needs -shards > 1")
	case *healthOut != "" && *mode == "live" && *shards < 2:
		return fmt.Errorf("-health-out needs -mode sim or -shards > 1 (a single live server has no health sampler)")
	case recordDecisions && *mode != "sim":
		return fmt.Errorf("-decisions-out/-counterfactual-k/-regret-ref need -mode sim (the live server records via its own -http endpoint)")
	case *verifyRecovery && *mode != "sim":
		return fmt.Errorf("-verify-recovery needs -mode sim (determinism is a virtual-time property)")
	case *verifyRecovery && !chaosProf.HasShardFaults() && !chaosProf.HasCoordFaults():
		return fmt.Errorf("-verify-recovery needs -chaos with shard_kill/shard_drain or coord_kill/coord_partition faults")
	}

	base := load.Config{
		Shape:          load.Shape(*arrivals),
		Seed:           *seed,
		HorizonSlots:   *slots,
		SlotsPerSecond: slotsPerSecond,
		Sessions:       *sessions,
		RatePerSec:     *rate,
		MeanHoldSec:    *meanHold,
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
	var (
		rec       *obs.Recorder
		attr      *obs.RegretAttributor
		decisions *os.File
	)
	if *mode == "sim" && (recordDecisions || *httpAddr != "") {
		attr = obs.NewRegretAttributor(obs.RegretAttributorOptions{Registry: reg})
		ropts := obs.RecorderOptions{RingSize: 1024, Attributor: attr}
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
	// The placement recorder exists only when something reads it: its
	// collabvr_fleet_* counters would otherwise join the health export.
	var placements *obs.PlacementRecorder
	if *shards > 1 && (*placementsOut != "" || *httpAddr != "") {
		popts := obs.PlacementRecorderOptions{RingSize: 512, Metrics: reg}
		if *placementsOut != "" {
			f, err := os.Create(*placementsOut)
			if err != nil {
				return fmt.Errorf("placement export: %w", err)
			}
			defer f.Close()
			popts.Writer = f
		}
		placements = obs.NewPlacementRecorder(popts)
	}
	// Health plane: one store for both the fleet series (fed by the fleet
	// engine) and the registry/SLO samples (fed by the sampler on the slot
	// clock), so /debug/health and the export are a single document.
	var (
		healthStore   *tsdb.Store
		healthSampler *tsdb.Sampler
	)
	if *healthOut != "" || *evacOn {
		healthStore = tsdb.New(tsdb.Options{})
		healthSampler = tsdb.NewSampler(tsdb.SamplerOptions{
			Store:    healthStore,
			Registry: reg,
			SLO:      slo,
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
	// /debug/fleet and /debug/coord serve the run in progress (placement
	// counters and tail, the live coordinator's status) and, once it has
	// finished, its report.
	var (
		snapMu      sync.Mutex
		fleetRep    *load.FleetReport
		coordStatus func() coord.Status
	)
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("observability listen: %w", err)
		}
		defer ln.Close()
		mopts := obs.MuxOptions{SLO: slo, Breaker: brk, Regret: attr}
		if healthStore != nil {
			mopts.Health = tsdb.Handler(healthStore)
		}
		if *shards > 1 {
			mopts.Fleet = func(n int) obs.FleetSnapshot {
				f := obs.FleetSnapshot{
					Scorer:           *scorer,
					GlobalBudgetMbps: *budget,
					Placements:       reg.Counter("collabvr_fleet_placements_total").Value(),
					Migrations:       int(reg.Counter("collabvr_fleet_migrations_total").Value()),
				}
				snapMu.Lock()
				if fleetRep != nil {
					f = fleetRep.Fleet
				}
				snapMu.Unlock()
				f.Recent = placements.Recent(n)
				return f
			}
			mopts.Coord = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				snapMu.Lock()
				status, done := coordStatus, fleetRep
				snapMu.Unlock()
				var doc any
				if status != nil {
					doc = status()
				} else if done != nil {
					doc = done.Coord
				}
				obs.ServeJSON(w, doc)
			})
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
	// configs builds every run's engine config from the flags: the measured
	// run, the capacity probes and the verification reruns
	// all start here; a single-server run uses the Sim or Live field.
	// withChaos selects the fault schedule; withObs wires the shared
	// observers. Only the measured run observes, so stateful observers
	// carried across runs cannot perturb a probe's verdict or a bit-for-bit
	// comparison.
	configs := func(withChaos, withObs bool) (load.FleetSimConfig, load.FleetLiveConfig) {
		sim := load.SimConfig{
			Params:          params,
			NewAllocator:    newAlloc,
			AllocName:       *algo,
			BudgetMbps:      *budget,
			CounterfactualK: *counterK,
			RegretRef:       *regretRef,
		}
		live := load.LiveConfig{
			Params:       params,
			NewAllocator: newAlloc,
			AllocName:    *algo,
			BudgetMbps:   *budget,
			SlotDuration: slotDur,
			MaxSessions:  *maxSessions,
			Reconnect:    *reconnect,
			DrainTimeout: *drainT,
			Logf:         logf,
		}
		fsim := load.FleetSimConfig{Shards: *shards, Scorer: *scorer, Coordinators: *coordinators}
		flive := load.FleetLiveConfig{Shards: *shards, Scorer: *scorer, Coordinators: *coordinators}
		if withChaos && chaosProf != nil {
			sim.Chaos, live.Chaos = chaosProf, chaosProf
			// Faults on the wire need the adaptive retransmission path;
			// the retry slot tracks the display-slot clock.
			retrySlot := slotDur
			if retrySlot <= 0 {
				retrySlot = time.Second / slotsPerSecond
			}
			live.RetryPolicy = transport.DefaultRetryPolicy(retrySlot)
		}
		if withObs {
			sim.Metrics, sim.Tracer, sim.TraceEpoch, sim.SLO, sim.Breaker = reg, tracer, uint64(*seed), slo, brk
			live.Metrics, live.Tracer, live.TraceEpoch, live.SLO, live.Breaker = reg, tracer, uint64(*seed), slo, brk
			sim.Recorder, sim.Health = rec, healthSampler
			evac := fleet.EvacConfig{Enabled: *evacOn}
			fsim.Recorder, fsim.Health, fsim.Evac = placements, healthStore, evac
			flive.Recorder, flive.Health, flive.Sampler, flive.Evac = placements, healthStore, healthSampler, evac
			flive.CoordDebug = func(status func() coord.Status) {
				snapMu.Lock()
				coordStatus = status
				snapMu.Unlock()
			}
		}
		fsim.Sim, flive.Live = sim, live
		return fsim, flive
	}
	// execute runs w on the engine the flags select.
	execute := func(w *load.Workload, withChaos, withObs bool) (*load.RunReport, *load.FleetReport, error) {
		fsim, flive := configs(withChaos, withObs)
		var (
			frep *load.FleetReport
			err  error
		)
		switch {
		case *shards == 1 && *mode == "live":
			rep, err := load.RunLive(w, flive.Live)
			return rep, nil, err
		case *shards == 1:
			rep, err := load.Simulate(w, fsim.Sim)
			return rep, nil, err
		case *mode == "live":
			frep, err = load.RunLiveFleet(w, flive)
		default:
			frep, err = load.SimulateFleet(w, fsim)
		}
		if err != nil {
			return nil, nil, err
		}
		return &frep.RunReport, frep, nil
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
				fcfg, _ := configs(false, false)
				fcfg.Shards = nShards
				fcfg.Sim.BudgetMbps = globalBudget
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
			rep, _, err := execute(pw, false, false)
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
		err = w.WriteJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "recorded %d sessions to %s\n", len(w.Sessions), *record)
	}

	if *checkReplay {
		fsim, _ := configs(false, false)
		if err := verifyReplay(w, fsim.Sim); err != nil {
			return err
		}
		fmt.Fprintln(out, "replay check: OK (byte-identical JSONL, identical replayed report)")
	}

	rep, frep, err := execute(w, true, true)
	if err != nil {
		return err
	}
	if frep != nil {
		snapMu.Lock()
		fleetRep = frep
		snapMu.Unlock()
		fmt.Fprint(out, frep.FormatFleet())
	} else {
		fmt.Fprint(out, rep.Format())
	}
	if *verifyRecovery {
		fleetCfg := func(withChaos bool) load.FleetSimConfig {
			fsim, _ := configs(withChaos, false)
			return fsim
		}
		if err := verifyFleetRecovery(out, w, fleetCfg, chaosProf); err != nil {
			return err
		}
	}
	if spanExp != nil {
		if err := spanExp.Close(); err != nil {
			return fmt.Errorf("span export: %w", err)
		}
		fmt.Fprintf(out, "spans: exported %d dropped %d to %s\n",
			spanExp.Records(), spanExp.Dropped(), *spanOut)
	}
	if rec != nil && rec.Records() > 0 {
		fmt.Fprintf(out, "decisions: recorded %d slots (ring %d, dropped %d)\n",
			rec.Records(), rec.RingCapacity(), rec.Dropped())
		if *decisionsOut != "" {
			fmt.Fprintf(out, "decisions: exported to %s\n", *decisionsOut)
		}
		if *regretRef {
			regRep := attr.Report()
			fmt.Fprintf(out, "regret: total %.5f, attributed %.1f%% across %d rows (full report: collabvr-inspect regret %s)\n",
				regRep.TotalRegret, 100*regRep.AttributedFraction, regRep.Rows, *decisionsOut)
		}
	}
	if *placementsOut != "" {
		if err := placements.Err(); err != nil {
			return fmt.Errorf("placement export: %w", err)
		}
		fmt.Fprintf(out, "placements: exported %d records to %s\n", placements.Records(), *placementsOut)
	}
	if frep != nil && *evacOn {
		fmt.Fprintf(out, "evac: %d session(s) moved in %d batch(es)\n",
			frep.Evacuations, frep.EvacBatches)
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
func verifyReplay(w *load.Workload, simCfg load.SimConfig) error {
	var b1 bytes.Buffer
	if err := w.WriteJSONL(&b1); err != nil {
		return fmt.Errorf("replay check: %w", err)
	}
	w2, err := load.ReadJSONL(bytes.NewReader(b1.Bytes()))
	if err != nil {
		return fmt.Errorf("replay check: %w", err)
	}
	var b2 bytes.Buffer
	if err := w2.WriteJSONL(&b2); err != nil {
		return fmt.Errorf("replay check: %w", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		return fmt.Errorf("replay check: JSONL round trip is not byte-identical (%d vs %d bytes)",
			b1.Len(), b2.Len())
	}
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

// verifyFleetRecovery runs the campaign three times on fresh,
// observer-free configs to assert the resilience contract: shard faults
// degrade instead of dropping, identical runs reproduce bit for bit, and
// tail quality recovers to within 10% of the fault-free run.
func verifyFleetRecovery(out io.Writer, w *load.Workload,
	fleetCfg func(withChaos bool) load.FleetSimConfig, prof *chaos.Profile) error {
	faulted, err := load.SimulateFleet(w, fleetCfg(true))
	if err != nil {
		return err
	}

	// Degrades, not drops: every spawned session completed.
	if faulted.Completed != faulted.Spawned || faulted.Failed > 0 {
		return fmt.Errorf("verify-recovery: %d/%d sessions completed (%d failed) — shard faults dropped sessions",
			faulted.Completed, faulted.Spawned, faulted.Failed)
	}
	if prof.HasShardFaults() && faulted.Migrations == 0 {
		return fmt.Errorf("verify-recovery: shard faults migrated no sessions")
	}
	fmt.Fprintln(out, "degrades-not-drops: OK")

	// Bit for bit: an identical second run must be deep-equal.
	again, err := load.SimulateFleet(w, fleetCfg(true))
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(faulted, again) {
		return fmt.Errorf("verify-recovery: two identical runs produced different reports — determinism broken")
	}
	fmt.Fprintln(out, "determinism: OK")

	// Tail quality against the fault-free run, after the migrations settle.
	clean, err := load.SimulateFleet(w, fleetCfg(false))
	if err != nil {
		return err
	}
	tailFrom := lastShardFaultSlot(prof) + 100
	tail := faulted.MeanSlotQuality(tailFrom, len(faulted.SlotQuality))
	want := clean.MeanSlotQuality(tailFrom, len(clean.SlotQuality))
	if want <= 0 {
		return fmt.Errorf("verify-recovery: no tail window after slot %d (horizon %d too short)",
			tailFrom, faulted.HorizonSlots)
	}
	if tail < 0.90*want {
		return fmt.Errorf("verify-recovery: post-fault tail quality %.3f < 90%% of fault-free %.3f", tail, want)
	}
	fmt.Fprintf(out, "recovery: OK (tail quality %.3f vs fault-free %.3f from slot %d)\n", tail, want, tailFrom)

	// Coordinator failover contract: when the campaign kills or partitions
	// coordinator replicas, every alive replica must still converge to one
	// owner map (no split brain), and a leader loss must have cost only a
	// bounded leaderless window.
	if prof.HasCoordFaults() {
		co := faulted.Coord
		if !co.Converged {
			return fmt.Errorf("verify-recovery: coordinator replicas did not converge — split-brain ownership")
		}
		fmt.Fprintf(out, "coord failover: OK (term %d, elections %d, rejected %d, leaderless slots %d, converged)\n",
			co.Term, co.Elections, co.Rejected, co.LeaderlessSlots)
	}
	return nil
}

// lastShardFaultSlot returns the latest slot a shard fault begins.
func lastShardFaultSlot(p *chaos.Profile) int {
	last := 0
	for _, f := range p.ShardFaults() {
		if f.StartSlot > last {
			last = f.StartSlot
		}
	}
	return last
}

// Command collabvr-server runs a standalone edge server that any number of
// collabvr-client processes can join. It is the deployable counterpart of
// the paper's Java server: pose ingest over TCP, quality allocation with
// the chosen algorithm each slot, RTP-like tile delivery over UDP.
//
// Usage:
//
//	collabvr-server -tcp 127.0.0.1:7400 -udp 127.0.0.1:7401 -algo dvgreedy -slots 3600
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "collabvr-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("collabvr-server", flag.ContinueOnError)
	var (
		tcpAddr    = fs.String("tcp", "127.0.0.1:7400", "control (TCP) listen address")
		udpAddr    = fs.String("udp", "127.0.0.1:7401", "data (UDP) bind address")
		algo       = fs.String("algo", "dvgreedy", "allocator: "+strings.Join(baseline.AllocatorNames(), ", "))
		budget     = fs.Float64("budget", 400, "server throughput budget B(t) in Mbps")
		slots      = fs.Int("slots", 0, "stop after this many slots (0 = run until interrupted)")
		slotMs     = fs.Float64("slotms", 1000.0/60, "slot duration in milliseconds")
		alpha      = fs.Float64("alpha", 0.1, "QoE delay weight")
		beta       = fs.Float64("beta", 0.5, "QoE variance weight")
		httpAddr   = fs.String("http", "", "observability HTTP listen address serving /metrics and /debug/slots (empty = disabled)")
		ringSize   = fs.Int("slots-ring", 1024, "flight-recorder ring capacity (records kept for /debug/slots, which also reports capacity and drop count)")
		counterK   = fs.Int("counterfactual-k", 0, "record the top-K unchosen upgrades per slot (0 = off; served on /debug/slots and /debug/regret)")
		debug      = fs.Bool("debug", false, "expose pprof, /debug/runtime and runtime gauges on the -http mux")
		spanOut    = fs.String("span-out", "", "write server-side request spans to this JSONL file (analyze with collabvr-inspect spans)")
		spanSample = fs.Uint64("span-sample", 1, "keep 1 in N traces (deterministic by trace ID; 0 or 1 = all)")
		traceEpoch = fs.Uint64("trace-epoch", 0, "trace-ID epoch salt (clients stitching must share it)")
		sloOn      = fs.Bool("slo", false, "track per-session QoE SLO burn rates (served on /debug/slo with -http)")
		healthOn   = fs.Bool("health", false, "sample metrics/SLO into the multi-resolution health store each slot (served on /debug/health with -http; implies -slo)")
		healthOut  = fs.String("health-out", "", "write the health time-series export to this JSONL file on exit (implies -health)")
		healthEvry = fs.Int("health-every", 1, "health sampling cadence in slots")
		chaosPath  = fs.String("chaos", "", "chaos profile JSON; server-pipeline faults (server-stall, slow-ack) apply here, packet faults need the loadgen live harness")
		breakerOn  = fs.Bool("breaker", false, "SLO-driven per-session circuit breaker: cap quality on warn/page instead of dropping users (implies -slo)")
		retryOn    = fs.Bool("retry", false, "bound NACK retransmissions with full-jitter backoff and abandonment")
		drainT     = fs.Duration("drain-timeout", 5*time.Second, "on SIGTERM/SIGINT, drain in-flight sessions for up to this long before closing")
		verbose    = fs.Bool("v", false, "verbose logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	newAlloc, err := baseline.Constructor(*algo)
	if err != nil {
		return err
	}

	cfg := server.DefaultConfig(newAlloc())
	cfg.TCPAddr = *tcpAddr
	cfg.UDPAddr = *udpAddr
	cfg.BudgetMbps = *budget
	cfg.TotalSlots = *slots
	cfg.SlotDuration = time.Duration(*slotMs * float64(time.Millisecond))
	cfg.Params.Alpha = *alpha
	cfg.Params.Beta = *beta
	if *verbose {
		cfg.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}

	var spanExp *trace.Exporter
	if *spanOut != "" {
		f, err := os.Create(*spanOut)
		if err != nil {
			return fmt.Errorf("span export: %w", err)
		}
		defer f.Close()
		spanExp = trace.NewExporter(trace.ExporterOptions{Writer: f})
		cfg.Tracer = trace.New(trace.Options{Sample: *spanSample, Exporter: spanExp})
		cfg.TraceEpoch = *traceEpoch
	}
	wantHealth := *healthOn || *healthOut != ""
	if *sloOn || *breakerOn || wantHealth {
		if cfg.Metrics == nil {
			cfg.Metrics = obs.NewRegistry()
		}
		cfg.SLO = obs.NewSLOMonitor(obs.DefaultSLOConfig(), cfg.Metrics)
	}
	var healthStore *tsdb.Store
	if wantHealth {
		healthStore = tsdb.New(tsdb.Options{})
		cfg.Health = tsdb.NewSampler(tsdb.SamplerOptions{
			Store:      healthStore,
			Registry:   cfg.Metrics,
			SLO:        cfg.SLO,
			EverySlots: *healthEvry,
		})
	}
	if *breakerOn {
		bcfg := obs.DefaultBreakerConfig()
		bcfg.Levels = cfg.Params.Levels
		cfg.Breaker = obs.NewBreaker(bcfg, cfg.Metrics)
	}
	if *retryOn {
		cfg.RetryPolicy = transport.DefaultRetryPolicy(cfg.SlotDuration)
	}
	if *chaosPath != "" {
		prof, err := chaos.LoadProfile(*chaosPath)
		if err != nil {
			return err
		}
		cfg.Chaos = chaos.NewServerInjector(prof)
		if prof.HasSessionFaults() {
			fmt.Fprintln(os.Stderr, "collabvr-server: note: profile contains packet/bandwidth faults;"+
				" only server-pipeline faults (server-stall, slow-ack) inject here")
		}
	}

	var rec *obs.Recorder
	if *httpAddr != "" {
		if cfg.Metrics == nil {
			cfg.Metrics = obs.NewRegistry()
		}
		attr := obs.NewRegretAttributor(obs.RegretAttributorOptions{Registry: cfg.Metrics})
		rec = obs.NewRecorder(obs.RecorderOptions{RingSize: *ringSize, Attributor: attr})
		cfg.Recorder = rec
		cfg.CounterfactualK = *counterK
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("observability listen: %w", err)
		}
		defer ln.Close()
		mopts := obs.MuxOptions{SLO: cfg.SLO, Breaker: cfg.Breaker, Regret: attr, Debug: *debug}
		if healthStore != nil {
			mopts.Health = tsdb.Handler(healthStore, nil)
		}
		go http.Serve(ln, obs.NewMuxOpts(cfg.Metrics, rec, mopts))
		fmt.Printf("collabvr-server: observability on http://%s/metrics, /debug/slots and /debug/regret\n",
			ln.Addr())
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("collabvr-server: control %s, algorithm %s, budget %g Mbps\n",
		srv.ControlAddr(), *algo, *budget)

	// Crash-safe lifecycle: SIGTERM/SIGINT triggers a graceful drain —
	// in-flight sessions get up to -drain-timeout to flush and depart before
	// the sockets close, so clients are not stranded on half-delivered
	// frames.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigCh)
	select {
	case <-srv.Done():
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "collabvr-server: %v: draining (timeout %s)\n", sig, *drainT)
		if !srv.Drain(*drainT) {
			fmt.Fprintln(os.Stderr, "collabvr-server: drain timed out with unflushed sessions")
		}
	}
	stats := srv.Stats()
	if err := srv.Close(); err != nil {
		return err
	}
	fmt.Printf("%-6s %8s %8s %9s %10s %8s %8s\n",
		"user", "slots", "tiles", "skipped", "bytes", "level", "est")
	for _, st := range stats {
		fmt.Printf("%-6d %8d %8d %9d %10d %8.2f %8.1f\n",
			st.User, st.SlotsServed, st.TilesSent, st.TilesSkipped,
			st.BytesSent, st.MeanLevel, st.EstMbps)
	}
	if rec != nil && rec.Records() > 0 {
		fmt.Println()
		fmt.Print(rec.Summary().Format())
	}
	if spanExp != nil {
		if err := spanExp.Close(); err != nil {
			return fmt.Errorf("span export: %w", err)
		}
		fmt.Printf("spans: exported %d dropped %d to %s\n",
			spanExp.Records(), spanExp.Dropped(), *spanOut)
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
		fmt.Printf("health: exported %d series to %s\n", healthStore.Len(), *healthOut)
	}
	return nil
}

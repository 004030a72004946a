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
		tcpAddr   = fs.String("tcp", "127.0.0.1:7400", "control (TCP) listen address")
		udpAddr   = fs.String("udp", "127.0.0.1:7401", "data (UDP) bind address")
		algo      = fs.String("algo", "dvgreedy", "allocator: "+strings.Join(baseline.AllocatorNames(), ", "))
		budget    = fs.Float64("budget", 400, "server throughput budget B(t) in Mbps")
		slots     = fs.Int("slots", 0, "stop after this many slots (0 = run until interrupted)")
		slotMs    = fs.Float64("slotms", 1000.0/60, "slot duration in milliseconds")
		httpAddr  = fs.String("http", "", "observability HTTP listen address serving /metrics and /debug/slots (empty = disabled)")
		debug     = fs.Bool("debug", false, "expose pprof, /debug/runtime and runtime gauges on the -http mux")
		spanOut   = fs.String("span-out", "", "write server-side request spans to this JSONL file (analyze with collabvr-inspect spans)")
		sloOn     = fs.Bool("slo", false, "track per-session QoE SLO burn rates (served on /debug/slo with -http)")
		chaosPath = fs.String("chaos", "", "chaos profile JSON; server-pipeline faults (server-stall, slow-ack) apply here, packet faults need the loadgen live harness")
		breakerOn = fs.Bool("breaker", false, "SLO-driven per-session circuit breaker: cap quality on warn/page instead of dropping users (implies -slo)")
		retryOn   = fs.Bool("retry", false, "bound NACK retransmissions with full-jitter backoff and abandonment")
		drainT    = fs.Duration("drain-timeout", 5*time.Second, "on SIGTERM/SIGINT, drain in-flight sessions for up to this long before closing")
		verbose   = fs.Bool("v", false, "verbose logging")
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
		cfg.Tracer = trace.New(trace.Options{Exporter: spanExp})
	}
	if *sloOn || *breakerOn {
		if cfg.Metrics == nil {
			cfg.Metrics = obs.NewRegistry()
		}
		cfg.SLO = obs.NewSLOMonitor(obs.DefaultSLOConfig(), cfg.Metrics)
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
		rec = obs.NewRecorder(obs.RecorderOptions{RingSize: 1024, Attributor: attr})
		cfg.Recorder = rec
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("observability listen: %w", err)
		}
		defer ln.Close()
		mopts := obs.MuxOptions{SLO: cfg.SLO, Breaker: cfg.Breaker, Regret: attr, Debug: *debug}
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
	return nil
}

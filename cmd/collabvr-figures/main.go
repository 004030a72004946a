// Command collabvr-figures regenerates every table and figure of the paper's
// evaluation in one run: the content-size convexity of Fig. 1a, the RTT
// measurements of Fig. 1b, the trace-based simulation CDFs of Figs. 2 and 3,
// and the real-system comparisons of Figs. 7 and 8. Pass -fig to select a
// single figure and -full for paper-scale parameters (slower).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/nettrace"
	"repro/internal/obs"
	"repro/internal/randsrc"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/tiles"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "collabvr-figures:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("collabvr-figures", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "figure to regenerate: 1a, 1b, 2, 3, 7, 8 or all")
		full     = fs.Bool("full", false, "paper-scale parameters (much slower)")
		seed     = fs.Int64("seed", 1, "random seed")
		traceOut = fs.String("trace-out", "", "write the simulation figures' per-slot decision trace as JSONL to this file (empty = disabled)")
		spans    = fs.Bool("spans", false, "run a traced simulation campaign and print the end-to-end span analysis")
		spanOut  = fs.String("span-out", "", "with -spans: also write the span JSONL to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spans {
		return runSpanAnalysis(*seed, *full, *spanOut)
	}

	var rec *obs.Recorder
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		defer f.Close()
		rec = obs.NewRecorder(obs.RecorderOptions{RingSize: 256, Writer: f})
	}

	want := func(name string) bool { return *fig == "all" || strings.EqualFold(*fig, name) }

	if want("1a") {
		fig1a(*seed)
	}
	if want("1b") {
		fig1b(*seed, *full)
	}
	if want("2") {
		if err := figSim(5, *seed, *full, rec); err != nil {
			return err
		}
	}
	if want("3") {
		if err := figSim(30, *seed, *full, rec); err != nil {
			return err
		}
	}
	if want("7") {
		if err := figTestbed(1, *seed, *full); err != nil {
			return err
		}
	}
	if want("8") {
		if err := figTestbed(2, *seed, *full); err != nil {
			return err
		}
	}
	if want("ext-volatility") || *fig == "all" {
		if err := extVolatility(*seed, *full); err != nil {
			return err
		}
	}
	if want("ext-estimation") || *fig == "all" {
		if err := extEstimation(*seed, *full); err != nil {
			return err
		}
	}
	if want("ext-weights") || *fig == "all" {
		if err := extWeights(*seed, *full); err != nil {
			return err
		}
	}
	if rec != nil && rec.Records() > 0 {
		fmt.Print(rec.Summary().Format())
		if err := rec.Err(); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Printf("# decision trace written to %s\n", *traceOut)
	}
	return nil
}

// runSpanAnalysis runs one traced virtual-time campaign over the standard
// algorithm set and prints the per-stage latency breakdown, critical-path
// attribution and slowest-trace exemplars — the latency-breakdown table of
// docs/OBSERVABILITY.md, produced without sockets or wall-clock slots.
func runSpanAnalysis(seed int64, full bool, spanOut string) error {
	var buf bytes.Buffer
	w := io.Writer(&buf)
	if spanOut != "" {
		f, err := os.Create(spanOut)
		if err != nil {
			return fmt.Errorf("span-out: %w", err)
		}
		defer f.Close()
		w = io.MultiWriter(&buf, f)
	}
	exp := trace.NewExporter(trace.ExporterOptions{Writer: w, Sync: true})
	tracer := trace.New(trace.Options{Exporter: exp})

	cfg := sim.DefaultConfig(5)
	cfg.Seed = seed
	cfg.Seconds = 10
	cfg.Runs = 1
	if full {
		cfg.Seconds = 60
	}
	cfg.IncludeOptimal = false
	cfg.Tracer = tracer
	cfg.TraceEpoch = uint64(seed)
	fmt.Printf("# span analysis: traced simulation, N=%d (%gs, %d algorithms)\n",
		cfg.Users, cfg.Seconds, len(sim.StandardAlgorithms(false)))
	if _, err := sim.Run(cfg, sim.StandardAlgorithms(false)); err != nil {
		return err
	}
	if err := exp.Close(); err != nil {
		return err
	}
	if exp.Dropped() != 0 {
		return fmt.Errorf("span exporter dropped %d spans", exp.Dropped())
	}
	recs, err := trace.ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	a := trace.Analyze(recs, 5)
	fmt.Print(a.Format())
	if spanOut != "" {
		fmt.Printf("# span JSONL written to %s\n", spanOut)
	}
	return nil
}

// extWeights sweeps the QoE weights alpha (delay) and beta (variance),
// quantifying the paper's Section II guidance: "a larger value of alpha is
// chosen for those applications which are more sensitive to the delay, like
// multi-user VR gaming. Similarly, we prefer a larger value of beta when
// our model is applied to those applications requiring consistent content
// streaming like museum touring."
func extWeights(seed int64, full bool) error {
	fmt.Println("# Extension: QoE-weight sensitivity of the proposed algorithm (5 users)")
	fmt.Printf("%-26s %10s %10s %12s %10s\n", "weights", "QoE", "quality", "delay(ms)", "variance")
	settings := []struct {
		name        string
		alpha, beta float64
	}{
		{"alpha=0.02 beta=0.1", 0.02, 0.1},
		{"alpha=0.02 beta=0.5 (sim)", 0.02, 0.5},
		{"alpha=0.02 beta=2 (museum)", 0.02, 2},
		{"alpha=0.1  beta=0.5 (sys)", 0.1, 0.5},
		{"alpha=0.5  beta=0.5 (game)", 0.5, 0.5},
	}
	for _, s := range settings {
		cfg := sim.DefaultConfig(5)
		cfg.Seed = seed
		cfg.Seconds = 20
		cfg.Runs = 8
		if full {
			cfg.Seconds = 60
			cfg.Runs = 20
		}
		cfg.IncludeOptimal = false
		cfg.Params.Alpha = s.alpha
		cfg.Params.Beta = s.beta
		results, err := sim.Run(cfg, sim.StandardAlgorithms(false)[:1])
		if err != nil {
			return err
		}
		qoe, quality, delay, variance := results[0].CDFs()
		fmt.Printf("%-26s %10.4f %10.4f %12.4f %10.4f\n",
			s.name, qoe.Mean(), quality.Mean(), delay.Mean(), variance.Mean())
	}
	fmt.Println()
	return nil
}

// extEstimation is the deterministic analog of Figs. 7/8: QoE under
// increasingly imperfect throughput estimation (EMA over delayed, noisy
// samples instead of the paper's Section IV perfect knowledge).
func extEstimation(seed int64, full bool) error {
	fmt.Println("# Extension: deterministic Fig 7/8 analog — QoE vs estimation noise (5 users)")
	fmt.Printf("%-22s %12s %12s %12s\n", "estimation", "proposed", "firefly", "pavq")
	settings := []struct {
		name         string
		alpha, noise float64
	}{
		{"perfect (Sec IV)", 0, 0},
		{"EMA, 10% noise", 0.2, 0.1},
		{"EMA, 30% noise", 0.2, 0.3},
		{"EMA, 50% noise", 0.2, 0.5},
	}
	for _, s := range settings {
		cfg := sim.DefaultConfig(5)
		cfg.Seed = seed
		cfg.Seconds = 20
		cfg.Runs = 8
		if full {
			cfg.Seconds = 60
			cfg.Runs = 20
		}
		cfg.IncludeOptimal = false
		cfg.EstimateAlpha = s.alpha
		cfg.EstimateNoise = s.noise
		results, err := sim.Run(cfg, sim.StandardAlgorithms(false))
		if err != nil {
			return err
		}
		byName := map[string]float64{}
		for _, r := range results {
			byName[r.Name] = metrics.NewCDF(r.QoE).Mean()
		}
		fmt.Printf("%-22s %12.4f %12.4f %12.4f\n",
			s.name, byName["proposed"], byName["firefly"], byName["pavq"])
	}
	fmt.Println()
	return nil
}

// extVolatility is an extension experiment: how each algorithm's mean QoE
// degrades as the network profile hardens from stable broadband through
// 4G/LTE to blockage-prone 5G mmWave.
func extVolatility(seed int64, full bool) error {
	profiles := []struct {
		name string
		kind nettrace.Kind
	}{
		{"broadband", nettrace.Broadband},
		{"lte", nettrace.LTE},
		{"mmwave", nettrace.MmWave},
	}
	fmt.Println("# Extension: QoE sensitivity to network-trace volatility (10 users)")
	fmt.Printf("%-12s %12s %12s %12s %12s\n", "profile", "proposed", "firefly", "pavq", "fairness*")
	for _, prof := range profiles {
		cfg := sim.DefaultConfig(10)
		cfg.Seed = seed
		cfg.Seconds = 20
		cfg.Runs = 6
		if full {
			cfg.Seconds = 60
			cfg.Runs = 20
		}
		cfg.IncludeOptimal = false
		cfg.NetKinds = []nettrace.Kind{prof.kind}
		results, err := sim.Run(cfg, sim.StandardAlgorithms(false))
		if err != nil {
			return err
		}
		byName := map[string]float64{}
		var fairness float64
		for _, r := range results {
			byName[r.Name] = metrics.NewCDF(r.QoE).Mean()
			if r.Name == "proposed" {
				fairness = metrics.NewCDF(r.Fairness).Mean()
			}
		}
		fmt.Printf("%-12s %12.4f %12.4f %12.4f %12.4f\n",
			prof.name, byName["proposed"], byName["firefly"], byName["pavq"], fairness)
	}
	fmt.Println("* Jain fairness index of the proposed algorithm's per-user QoE")
	fmt.Println()
	return nil
}

// fig1a prints the tile size vs quality level curves for two contents,
// establishing convexity.
func fig1a(seed int64) {
	model := tiles.NewSizeModel(uint64(seed))
	contents := []struct {
		name string
		cell tiles.CellID
		tile tiles.TileID
	}{
		{"content-A", tiles.CellID{X: 10, Z: 4}, 0},
		{"content-B", tiles.CellID{X: -37, Z: 91}, 2},
	}
	fmt.Println("# Fig 1a: tile rate (Mbps) vs quality level (convex for every content)")
	fmt.Printf("%-8s %-6s", "level", "CRF")
	for _, c := range contents {
		fmt.Printf("%14s", c.name)
	}
	fmt.Println()
	for q := 1; q <= tiles.Levels; q++ {
		crf, _ := tiles.CRFForLevel(q)
		fmt.Printf("%-8d %-6d", q, crf)
		for _, c := range contents {
			fmt.Printf("%14.2f", model.TileRate(c.cell, c.tile, q))
		}
		fmt.Println()
	}
	fmt.Println()
}

// fig1b prints RTT CDFs at several sending rates under a 15 Mbps cap.
func fig1b(seed int64, full bool) {
	samples := 20000
	if full {
		samples = 100000 // the paper's sample count
	}
	q := netem.NewQueueSim(15)
	rng := randsrc.NewRand(seed)
	rates := []float64{3, 6, 9, 12, 14}
	fmt.Printf("# Fig 1b: RTT under a 15 Mbps cap (%d samples per rate)\n", samples)
	names := make([]string, len(rates))
	cdfs := make([]*metrics.CDF, len(rates))
	for i, r := range rates {
		names[i] = fmt.Sprintf("%gMbps", r)
		cdfs[i] = metrics.NewCDF(q.RTTSamples(r, samples, rng))
	}
	fmt.Print(metrics.FormatSeries("RTT CDF (ms) by sending rate", 11, names, cdfs))
	fmt.Printf("mean RTT:")
	for i := range rates {
		fmt.Printf("  %s=%.2fms", names[i], cdfs[i].Mean())
	}
	fmt.Print("\n\n")
}

// figSim runs the Section IV simulation for N users.
func figSim(users int, seed int64, full bool, rec *obs.Recorder) error {
	cfg := sim.DefaultConfig(users)
	cfg.Seed = seed
	cfg.Recorder = rec
	if full {
		cfg.Seconds = 300
		cfg.Runs = 100
	} else {
		cfg.Seconds = 30
		cfg.Runs = 10
	}
	figure := "Fig 2"
	if users > 6 {
		figure = "Fig 3"
	}
	fmt.Printf("# %s: trace-based simulation, N=%d (%gs x %d runs)\n",
		figure, users, cfg.Seconds, cfg.Runs)
	results, err := sim.Run(cfg, sim.StandardAlgorithms(cfg.IncludeOptimal))
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %10s %10s %12s %10s\n", "algorithm", "QoE", "quality", "delay(ms)", "variance")
	for _, r := range results {
		qoe, quality, delay, variance := r.CDFs()
		fmt.Printf("%-10s %10.4f %10.4f %12.4f %10.4f\n",
			r.Name, qoe.Mean(), quality.Mean(), delay.Mean(), variance.Mean())
	}
	fmt.Println()
	return nil
}

// figTestbed runs the Section VI real-system experiment: by default
// EXPERIMENTS.md's recipe (1200 slots of 8 ms, 5 repeats), with -full the
// paper's real-time 60 Hz slots.
func figTestbed(setupID int, seed int64, full bool) error {
	setup := testbed.Setup1()
	if setupID == 2 {
		setup = testbed.Setup2()
	}
	cfg := testbed.Config{
		Setup:        setup,
		Slots:        1200,
		SlotDuration: 8 * time.Millisecond,
		Seed:         seed,
		Params:       core.DefaultSystemParams(),
	}
	const repeats = 5 // the paper's repetition count
	if full {
		cfg.Slots = 3600
		cfg.SlotDuration = time.Second / 60
	}
	fmt.Printf("# Fig %d: real-system run on %s (%d slots of %v x %d repeats, seed %d)\n",
		setupID+6, setup.Name, cfg.Slots, cfg.SlotDuration, repeats, seed)

	names := []string{"proposed", "firefly", "pavq"} // testbed.RunAll's order
	runs := make([][]metrics.Report, len(names))     // one aggregate per repeat
	for rep := 0; rep < repeats; rep++ {
		cfg.Seed = seed + int64(rep)*1009
		results, err := testbed.RunAll(cfg)
		if err != nil {
			return err
		}
		for i, r := range results {
			runs[i] = append(runs[i], r.Aggregate)
		}
	}
	agg := make([]metrics.Report, len(runs))
	for i := range runs {
		agg[i] = metrics.Mean(runs[i])
	}
	fmt.Print(metrics.FormatComparison("average per-user metrics (delay in ms)",
		names, agg, 1/cfg.SlotDuration.Seconds()))
	if agg[1].QoE != 0 && agg[2].QoE != 0 {
		fmt.Printf("QoE improvement of proposed: vs firefly %+.1f%%, vs pavq %+.1f%%\n",
			(agg[0].QoE-agg[1].QoE)/math.Abs(agg[1].QoE)*100,
			(agg[0].QoE-agg[2].QoE)/math.Abs(agg[2].QoE)*100)
	}
	fmt.Println()
	return nil
}

// Command collabvr-client emulates one commodity mobile device: it joins a
// collabvr-server, replays a generated (or CSV-loaded) motion trace,
// receives and displays the tile stream, and prints its QoE report when the
// server ends the session.
//
// Usage:
//
//	collabvr-client -server 127.0.0.1:7400 -user 0
//	collabvr-client -server 127.0.0.1:7400 -user 1 -trace traces/motion-user01.csv
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/motion"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "collabvr-client:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("collabvr-client", flag.ContinueOnError)
	var (
		serverAddr = fs.String("server", "127.0.0.1:7400", "server control (TCP) address")
		user       = fs.Uint64("user", 0, "user id (at most 4294967295)")
		tracePath  = fs.String("trace", "", "motion trace CSV (empty = generate)")
		slotMs     = fs.Float64("slotms", 1000.0/60, "slot duration in milliseconds (must match server)")
		seconds    = fs.Float64("seconds", 300, "generated trace length")
		ram        = fs.Int("ram", 512, "client RAM threshold in tiles")
		spanOut    = fs.String("span-out", "", "write client-side request spans to this JSONL file (merge with the server's via collabvr-inspect spans a.jsonl b.jsonl)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *user > math.MaxUint32:
		return fmt.Errorf("-user %d is above the wire's 32-bit user id", *user)
	case !(*slotMs > 0):
		return fmt.Errorf("-slotms must be positive")
	case *tracePath == "" && !(*seconds > 0):
		return fmt.Errorf("-seconds must be positive")
	}

	var mt motion.Trace
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		mt, err = motion.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		// A generated trace walks scene 0 from seed 1; the user id varies it.
		fps := 1000 / *slotMs
		mt = motion.Generate(motion.Scenes()[0], int(*user), int(*seconds*fps), fps, 1)
	}

	cfg := client.DefaultConfig(uint32(*user), *serverAddr, mt)
	cfg.SlotDuration = time.Duration(*slotMs * float64(time.Millisecond))
	cfg.RAMThreshold = *ram
	// Bound the run to the trace horizon so the client leaves on its own
	// after -seconds instead of waiting for the server to close.
	cfg.Slots = len(mt)

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

	fmt.Printf("collabvr-client: user %d joining %s (%d-slot trace)\n",
		*user, *serverAddr, len(mt))
	res, err := client.Run(cfg)
	if err != nil {
		return err
	}
	if spanExp != nil {
		if err := spanExp.Close(); err != nil {
			return fmt.Errorf("span export: %w", err)
		}
		fmt.Printf("spans: exported %d dropped %d to %s\n",
			spanExp.Records(), spanExp.Dropped(), *spanOut)
	}
	r := res.Report
	fmt.Printf("user %d: slots=%d tiles=%d bytes=%d releases=%d\n",
		res.User, res.Slots, res.Tiles, res.Bytes, res.Releases)
	fmt.Printf("QoE=%.4f quality=%.4f delay=%.4fms variance=%.4f coverage=%.4f fps=%.1f\n",
		r.QoE, r.Quality, r.Delay, r.Variance, r.Coverage, r.FPSFrac*1000 / *slotMs)
	return nil
}

// Classroom: the paper's motivating scenario — a VR classroom where a
// teacher and several students share a scene through an edge server — run
// live over loopback sockets. One edge server allocates quality with
// Algorithm 1 every slot; five emulated devices (one teacher, four
// students) replay motion traces, stream tiles over the RTP-like transport,
// and report their QoE at the end of the lesson.
//
// Run with:
//
//	go run ./examples/classroom
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/motion"
	"repro/internal/netem"
	"repro/internal/server"
	"repro/internal/transport"
)

const (
	users        = 5 // teacher + 4 students
	slots        = 600
	slotDuration = 8 * time.Millisecond
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "classroom:", err)
		os.Exit(1)
	}
}

func run() error {
	// Per-user throttles emulating heterogeneous wireless links.
	now := time.Now()
	throttles := []float64{60, 50, 45, 40, 55}
	buckets := make([]*netem.TokenBucket, users)
	for i := range buckets {
		buckets[i] = netem.NewTokenBucket(throttles[i], 4<<10, now)
	}

	cfg := server.DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = slotDuration
	cfg.BudgetMbps = 36 * users
	cfg.TotalSlots = slots
	cfg.ShaperFor = func(user uint32) transport.Shaper {
		return shaper{buckets[int(user)%users]}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("classroom: server on %s, %d slots at %v\n",
		srv.ControlAddr(), slots, slotDuration)

	scenes := motion.Scenes()
	results := make([]*client.Result, users)
	errs := make([]error, users)
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		trace := motion.Generate(scenes[0], u, slots+64, 1/slotDuration.Seconds(), 42)
		ccfg := client.DefaultConfig(uint32(u), srv.ControlAddr(), trace)
		ccfg.SlotDuration = slotDuration
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			results[u], errs[u] = client.Run(ccfg)
		}(u)
	}

	<-srv.Done()
	srv.Close()
	wg.Wait()

	fmt.Printf("\n%-10s %10s %10s %12s %10s %8s\n",
		"user", "QoE", "quality", "delay(ms)", "variance", "FPS")
	for u := 0; u < users; u++ {
		if errs[u] != nil {
			return fmt.Errorf("user %d: %w", u, errs[u])
		}
		r := results[u].Report
		role := "student"
		if u == 0 {
			role = "teacher"
		}
		fmt.Printf("%-10s %10.4f %10.4f %12.4f %10.4f %8.1f\n",
			fmt.Sprintf("%s-%d", role, u), r.QoE, r.Quality, r.Delay, r.Variance,
			r.FPSFrac/slotDuration.Seconds())
	}
	return nil
}

// shaper adapts a token bucket to the transport.Shaper interface.
type shaper struct{ b *netem.TokenBucket }

func (s shaper) Admit(n int, now time.Time) time.Duration { return s.b.Admit(n, now) }
func (s shaper) Drop() bool                               { return false }

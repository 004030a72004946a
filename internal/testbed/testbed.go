// Package testbed reproduces the real-system experiments of Section VI on
// the one live rig, load.RunLive: an in-process edge server plus N emulated
// smartphone clients over real loopback UDP/TCP sockets, with the paper's
// physical testbed — per-user Linux TC throttles behind shared routers — as
// a load.Topology. Setup 1 is 8 users behind one router (400 Mbps); setup 2
// is 15 users behind two bridged routers (800 Mbps) with extra rate
// variance from wireless interference. `collabvr-figures -fig 7|8` prints
// both comparisons.
package testbed

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/transport"
)

// setup describes one experimental configuration.
type setup struct {
	Name    string
	Users   int
	Routers int
	// ServerBudgetMbps is B(t) (paper: 400 for setup 1, 800 for setup 2).
	ServerBudgetMbps float64
	// Throttles are the per-user shaping rates, assigned round-robin: user
	// u's link is Throttles[u % len(Throttles)] (paper: {40, 45, 50, 55,
	// 60} Mbps).
	Throttles []float64
	// JitterFrac is the amplitude of the time-varying rate perturbation;
	// the two-router setup suffers more variance from interference.
	JitterFrac float64
	// LossProb is the i.i.d. packet-loss probability of the RTP stream.
	LossProb float64
}

// Setup1 is the paper's first experiment: 8 users, one router.
func Setup1() setup {
	return setup{
		Name:             "setup1-8users-1router",
		Users:            8,
		Routers:          1,
		ServerBudgetMbps: 400,
		Throttles:        []float64{40, 45, 50, 55, 60},
		JitterFrac:       0.10,
		LossProb:         0.002,
	}
}

// Setup2 is the paper's second experiment: 15 users, two bridged routers
// with stronger interference-driven variance.
func Setup2() setup {
	return setup{
		Name:             "setup2-15users-2routers",
		Users:            15,
		Routers:          2,
		ServerBudgetMbps: 800,
		Throttles:        []float64{40, 45, 50, 55, 60},
		JitterFrac:       0.30,
		LossProb:         0.005,
	}
}

// Config controls a testbed run.
type Config struct {
	Setup setup
	// Slots is the experiment length in time slots.
	Slots int
	// SlotDuration is the real-time slot length; scaling it up slows the
	// experiment down without changing the decision pipeline.
	SlotDuration time.Duration
	Seed         int64
	Params       core.Params
	// LossHandling enables the Discussion-section extension: clients NACK
	// fragment-lost tiles and the server retransmits them.
	LossHandling bool
}

// result is the outcome of one algorithm's run on a setup.
type result struct {
	Algorithm string
	// PerUser holds each client's report.
	PerUser []metrics.Report
	// Aggregate averages the per-user reports.
	Aggregate metrics.Report
	// FPS is the average displayed-frame rate in frames/second.
	FPS float64
	// ServerStats snapshots the server-side counters.
	ServerStats []server.UserStats
}

// Run executes one algorithm on the given setup and returns its result.
// Every user joins at slot 0 and stays for the whole run; an error from any
// client fails the run.
func Run(cfg Config, allocName string, alloc core.Allocator) (*result, error) {
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("testbed: Slots must be positive")
	}
	if cfg.SlotDuration <= 0 {
		cfg.SlotDuration = time.Second / 60
	}
	su := cfg.Setup
	w := &load.Workload{Cfg: load.Config{Seed: cfg.Seed, HorizonSlots: cfg.Slots, SlotsPerSecond: 1 / cfg.SlotDuration.Seconds()}}
	for u := 0; u < su.Users; u++ {
		w.Sessions = append(w.Sessions, load.SessionSpec{ID: uint32(u), DepartSlot: cfg.Slots, Scene: u % 2, MotionSeed: cfg.Seed})
	}
	live := load.LiveConfig{
		Params:       cfg.Params,
		NewAllocator: func() core.Allocator { return alloc },
		AllocName:    allocName,
		BudgetMbps:   su.ServerBudgetMbps,
		SlotDuration: cfg.SlotDuration,
		LossProb:     su.LossProb,
		Topology:     &load.Topology{Routers: su.Routers, Throttles: su.Throttles, Fade: su.JitterFrac},
	}
	if cfg.LossHandling {
		live.RetryPolicy = transport.DefaultRetryPolicy(cfg.SlotDuration)
	}
	rep, err := load.RunLive(w, live)
	if err == nil && rep.Failed > 0 {
		err = fmt.Errorf("%d of %d clients failed", rep.Failed, rep.Spawned)
	}
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}

	res := &result{Algorithm: allocName, ServerStats: rep.ServerStats()}
	for _, o := range rep.Outcomes {
		res.PerUser = append(res.PerUser, metrics.Report{QoE: o.QoE, Quality: o.Quality, Delay: o.DelayMs,
			Variance: o.Variance, Coverage: o.Coverage, FPSFrac: 1 - o.MissFrac})
	}
	res.Aggregate = metrics.Mean(res.PerUser)
	res.FPS = res.Aggregate.FPSFrac / cfg.SlotDuration.Seconds()
	return res, nil
}

// RunAll executes the standard algorithm set (proposed, Firefly, PAVQ) on a
// setup, reusing the configuration for comparability.
func RunAll(cfg Config) ([]*result, error) {
	var out []*result
	for _, name := range []string{"proposed", "firefly", "pavq"} {
		mk, err := baseline.Constructor(name)
		if err != nil {
			return nil, err
		}
		r, err := Run(cfg, name, mk())
		if err != nil {
			return nil, fmt.Errorf("testbed: %s: %w", name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

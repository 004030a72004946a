package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/transport"
)

// liveThrottles are the paper's per-user Linux-TC rates (Mbps). The rig
// assigns them round-robin, not by the seed, so the offered capacity is the
// same on every seed and only the motion (and loss) streams vary.
var liveThrottles = []float64{40, 45, 50, 55, 60}

// liveBudgetPerSession sets the server's B(t) below what the ladder's lowest
// level asks for (a selection is two to four tiles of about 4 Mbps each), so
// every session is held at the mandatory minimum level on every slot. With
// headroom the levels follow the capacity and delay estimators, which are fed
// by wall-clock goodput: two runs on the same inputs then differ by 15 % in
// bytes sent, and every data-plane metric with them. Pinned, the bytes per
// slot are set by the motion traces alone. (sim_dense and fleet_churn are
// where the allocator's upgrade work is measured.)
const liveBudgetPerSession = 4.0

// fadeSeed fixes the lossy workload's fade schedule (see startJitter).
const fadeSeed = 2

// rigConfig describes one live loopback run: one server.New plus Users
// client.Run goroutines over real TCP/UDP sockets, modelled on testbed.Run.
type rigConfig struct {
	Users      int
	Slots      int
	Routers    int
	RouterMbps float64 // capacity of each router's shared bucket
	JitterFrac float64 // 0 = fixed token-bucket rates
	LossProb   float64 // > 0 also switches NACK + retransmission on
	Seed       int64

	// EachSecond, when set, is called once a second of the run with the
	// session-slots served so far.
	EachSecond func(served int)

	// Telemetry seams, all nil in end-to-end runs.
	Metrics *obs.Registry
	Tracer  *trace.Tracer
	Solve   *spanLog     // times every solve when non-nil
	Pacing  *pacingTimer // wraps every session's shaper when non-nil
}

// rigResult is what one live run hands to the metric and check code.
type rigResult struct {
	Clients []*client.Result // index = user; nil where the client errored
	Errs    []error
	Server  []server.UserStats
}

func slotsServed(stats []server.UserStats) int {
	n := 0
	for _, st := range stats {
		n += st.SlotsServed
	}
	return n
}

// liveTraces generates the users' motion traces: the live workloads' seeded
// inputs, built once per set-up and replayed by every segment.
func liveTraces(users, slots int, seed int64) []motion.Trace {
	scenes := motion.Scenes()
	out := make([]motion.Trace, users)
	for u := range out {
		out[u] = motion.Generate(scenes[u%2], u, slots+64, 60, seed)
	}
	return out
}

// runRig executes one live run to completion and tears everything down.
func runRig(cfg rigConfig, traces []motion.Trace) (*rigResult, error) {
	const slotDur = time.Second / 60
	now := time.Now()

	// Small bucket bursts so pacing, not burst absorption, shapes the
	// stream (as in testbed.Run).
	routers := make([]*netem.TokenBucket, cfg.Routers)
	for i := range routers {
		routers[i] = netem.NewTokenBucket(cfg.RouterMbps, 16<<10, now)
	}
	userRate := make([]float64, cfg.Users)
	userBuckets := make([]*netem.TokenBucket, cfg.Users)
	for u := range userBuckets {
		userRate[u] = liveThrottles[u%len(liveThrottles)]
		userBuckets[u] = netem.NewTokenBucket(userRate[u], 4<<10, now)
	}

	stopJitter := func() {}
	if cfg.JitterFrac > 0 {
		stopJitter = startJitter(cfg, userRate, userBuckets, slotDur)
	}
	defer stopJitter()

	var alloc core.Allocator = core.NewSolverAllocator()
	if cfg.Solve != nil {
		alloc = &timedAllocator{inner: core.NewSolverAllocator(), log: cfg.Solve}
	}
	srvCfg := server.DefaultConfig(alloc)
	srvCfg.SlotDuration = slotDur
	srvCfg.BudgetMbps = liveBudgetPerSession * float64(cfg.Users)
	srvCfg.TotalSlots = cfg.Slots
	srvCfg.SizeModelSeed = uint64(cfg.Seed)
	srvCfg.Metrics = cfg.Metrics
	srvCfg.Tracer = cfg.Tracer
	srvCfg.ShaperFor = func(user uint32) transport.Shaper {
		u := int(user) % cfg.Users
		var sh transport.Shaper = transport.ChainShaper{
			bucketShaper{userBuckets[u]},
			bucketShaper{routers[u%cfg.Routers]},
			lossShaper{netem.NewLossModel(cfg.LossProb, cfg.Seed+int64(user)*131)},
		}
		if cfg.Pacing != nil {
			sh = timedShaper{inner: sh, t: cfg.Pacing}
		}
		return sh
	}
	if cfg.LossProb > 0 {
		srvCfg.RetransmitOnNack = true
		srvCfg.RetryPolicy = transport.DefaultRetryPolicy(slotDur)
	}
	srv, err := server.New(srvCfg)
	if err != nil {
		return nil, fmt.Errorf("rig: %w", err)
	}

	res := &rigResult{
		Clients: make([]*client.Result, cfg.Users),
		Errs:    make([]error, cfg.Users),
	}
	var wg sync.WaitGroup
	for u := 0; u < cfg.Users; u++ {
		ccfg := client.DefaultConfig(uint32(u), srv.ControlAddr(), traces[u])
		ccfg.SlotDuration = slotDur
		ccfg.Params = metrics.QoEParams{Alpha: srvCfg.Params.Alpha, Beta: srvCfg.Params.Beta}
		ccfg.NackLost = cfg.LossProb > 0
		ccfg.Metrics = cfg.Metrics
		ccfg.Tracer = cfg.Tracer
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			res.Clients[u], res.Errs[u] = client.Run(ccfg)
		}(u)
	}
	if cfg.EachSecond != nil {
		// Segment boundaries: once a second, hand over how many
		// session-slots the server has served so far.
		ticker := time.NewTicker(time.Second)
	ticks:
		for {
			select {
			case <-srv.Done():
				break ticks
			case <-ticker.C:
				cfg.EachSecond(slotsServed(srv.Stats()))
			}
		}
		ticker.Stop()
	}
	<-srv.Done()
	res.Server = srv.Stats()
	closeErr := srv.Close() // closes the control conns; clients drain and return
	wg.Wait()
	if closeErr != nil {
		return nil, fmt.Errorf("rig: close server: %w", closeErr)
	}
	return res, nil
}

// startJitter perturbs the user buckets every 10 slots: small noise plus
// sustained fades whose probability and depth scale with JitterFrac — the
// wireless-interference behaviour of the paper's two-router setup, copied
// from testbed.Run. Like the throttles, the fade schedule is the same on
// every seed: which sessions meet a deep fade, and when, decides how many
// of them lose display sync for the rest of the run, and a schedule drawn
// from the seed made on-time and quality swing by 10 % between seeds.
// The returned function stops the goroutine and waits for it.
func startJitter(cfg rigConfig, userRate []float64, buckets []*netem.TokenBucket, slotDur time.Duration) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(fadeSeed))
		fadeLeft := make([]int, len(buckets))
		fadeDepth := make([]float64, len(buckets))
		floor := 1 - 2.8*cfg.JitterFrac
		if floor < 0.1 {
			floor = 0.1
		}
		ticker := time.NewTicker(10 * slotDur)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			t := time.Now()
			for i, b := range buckets {
				if fadeLeft[i] > 0 {
					fadeLeft[i]--
				} else if rng.Float64() < cfg.JitterFrac*0.25 {
					fadeLeft[i] = 4 + rng.Intn(9)
					fadeDepth[i] = floor + rng.Float64()*(0.6-floor)
				}
				factor := 1 + rng.NormFloat64()*0.08
				if fadeLeft[i] > 0 {
					factor = fadeDepth[i] * (1 + rng.NormFloat64()*0.05)
				}
				if factor < 0.05 {
					factor = 0.05
				}
				b.SetRate(userRate[i]*factor, t)
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

type bucketShaper struct{ b *netem.TokenBucket }

func (s bucketShaper) Admit(n int, now time.Time) time.Duration { return s.b.Admit(n, now) }
func (s bucketShaper) Drop() bool                               { return false }

type lossShaper struct{ l *netem.LossModel }

func (s lossShaper) Admit(int, time.Time) time.Duration { return 0 }
func (s lossShaper) Drop() bool                         { return s.l.Drop() }

// pacingTimer accumulates the pacing waits the shapers impose (the sender
// sleeps any wait of a millisecond or more).
type pacingTimer struct{ waitNs atomic.Int64 }

type timedShaper struct {
	inner transport.Shaper
	t     *pacingTimer
}

func (s timedShaper) Admit(n int, now time.Time) time.Duration {
	d := s.inner.Admit(n, now)
	if d >= time.Millisecond {
		s.t.waitNs.Add(int64(d))
	}
	return d
}

func (s timedShaper) Drop() bool { return s.inner.Drop() }

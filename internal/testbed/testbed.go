// Package testbed orchestrates the real-system experiments of Section VI:
// an in-process edge server plus N emulated smartphone clients communicating
// over real loopback UDP/TCP sockets, with token-bucket throttles standing
// in for the Linux TC rate limits and router capacities of the paper's
// physical testbed. Setup 1 is 8 users behind one router (400 Mbps); setup
// 2 is 15 users behind two bridged routers (800 Mbps) with extra rate
// variance from wireless interference.
package testbed

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/netem"
	"repro/internal/server"
	"repro/internal/transport"
)

// Setup describes one experimental configuration.
type Setup struct {
	Name    string
	Users   int
	Routers int
	// ServerBudgetMbps is B(t) (paper: 400 for setup 1, 800 for setup 2).
	ServerBudgetMbps float64
	// Throttles are the per-user shaping rates, assigned round-robin after
	// a seeded shuffle (paper: {40, 45, 50, 55, 60} Mbps).
	Throttles []float64
	// JitterFrac is the amplitude of the time-varying rate perturbation;
	// the two-router setup suffers more variance from interference.
	JitterFrac float64
	// LossProb is the i.i.d. packet-loss probability of the RTP stream.
	LossProb float64
}

// Setup1 is the paper's first experiment: 8 users, one router.
func Setup1() Setup {
	return Setup{
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
func Setup2() Setup {
	return Setup{
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
	Setup Setup
	// Slots is the experiment length in time slots.
	Slots int
	// SlotDuration is the real-time slot length; scaling it up slows the
	// experiment down without changing the decision pipeline.
	SlotDuration time.Duration
	Seed         int64
	Params       core.Params
	// ClientParams weight the client-side QoE accounting; zero value means
	// derive from Params.
	ClientParams metrics.QoEParams
	// LossHandling enables the Discussion-section extension: clients NACK
	// fragment-lost tiles and the server retransmits them.
	LossHandling bool
}

// Result is the outcome of one algorithm's run on a setup.
type Result struct {
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
func Run(cfg Config, allocName string, alloc core.Allocator) (*Result, error) {
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("testbed: Slots must be positive")
	}
	if cfg.SlotDuration <= 0 {
		cfg.SlotDuration = time.Second / 60
	}
	if cfg.Params.Levels == 0 {
		cfg.Params = core.DefaultSystemParams()
	}
	if cfg.ClientParams == (metrics.QoEParams{}) {
		cfg.ClientParams = metrics.QoEParams{Alpha: cfg.Params.Alpha, Beta: cfg.Params.Beta}
	}
	setup := cfg.Setup
	if setup.Users <= 0 || setup.Routers <= 0 {
		return nil, fmt.Errorf("testbed: setup needs users and routers")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	now := time.Now()

	// Router buckets: the shared capacity of each router.
	// Bucket bursts are kept small (a few MTUs) so that pacing — not burst
	// absorption — shapes the stream; this is what makes the client's
	// first-to-last packet delay measurement and the server's goodput-based
	// throughput estimate meaningful, as on a real throttled link.
	routers := make([]*netem.TokenBucket, setup.Routers)
	perRouter := setup.ServerBudgetMbps / float64(setup.Routers)
	for i := range routers {
		routers[i] = netem.NewTokenBucket(perRouter, 16<<10, now)
	}

	// Per-user throttles: shuffled assignment from the guideline list.
	userRate := make([]float64, setup.Users)
	for i := range userRate {
		userRate[i] = setup.Throttles[rng.Intn(len(setup.Throttles))]
	}
	userBuckets := make([]*netem.TokenBucket, setup.Users)
	for i := range userBuckets {
		userBuckets[i] = netem.NewTokenBucket(userRate[i], 4<<10, now)
	}

	// Time-varying capacity: besides small per-interval jitter, links
	// suffer sustained fades — the wireless-interference behaviour that
	// makes the two-router setup hostile to estimation-driven algorithms
	// in the paper's Fig. 8. Fade probability and depth scale with
	// JitterFrac.
	jitterStop := make(chan struct{})
	var jitterWG sync.WaitGroup
	jitterWG.Add(1)
	go func() {
		defer jitterWG.Done()
		jrng := rand.New(rand.NewSource(cfg.Seed + 1))
		fadeLeft := make([]int, setup.Users) // remaining fade intervals
		fadeDepth := make([]float64, setup.Users)
		ticker := time.NewTicker(10 * cfg.SlotDuration)
		defer ticker.Stop()
		for {
			select {
			case <-jitterStop:
				return
			case <-ticker.C:
				t := time.Now()
				for i, b := range userBuckets {
					if fadeLeft[i] > 0 {
						fadeLeft[i]--
					} else if jrng.Float64() < setup.JitterFrac*0.25 {
						// Enter a fade lasting 4-12 intervals (40-120
						// slots) with depth growing with JitterFrac.
						fadeLeft[i] = 4 + jrng.Intn(9)
						floor := 1 - 2.8*setup.JitterFrac
						if floor < 0.1 {
							floor = 0.1
						}
						fadeDepth[i] = floor + jrng.Float64()*(0.6-floor)
						if fadeDepth[i] < floor {
							fadeDepth[i] = floor
						}
					}
					factor := 1 + jrng.NormFloat64()*0.08
					if fadeLeft[i] > 0 {
						factor = fadeDepth[i] * (1 + jrng.NormFloat64()*0.05)
					}
					if factor < 0.05 {
						factor = 0.05
					}
					b.SetRate(userRate[i]*factor, t)
				}
			}
		}
	}()
	defer func() {
		close(jitterStop)
		jitterWG.Wait()
	}()

	// The server shapes each user's stream through its throttle and its
	// router, with i.i.d. loss.
	shaperFor := func(user uint32) transport.Shaper {
		u := int(user) % setup.Users
		router := routers[u%setup.Routers]
		loss := netem.NewLossModel(setup.LossProb, cfg.Seed+int64(user)*131)
		return transport.ChainShaper{
			bucketShaper{userBuckets[u]},
			bucketShaper{router},
			lossShaper{loss},
		}
	}

	srvCfg := server.DefaultConfig(alloc)
	srvCfg.Params = cfg.Params
	srvCfg.SlotDuration = cfg.SlotDuration
	srvCfg.BudgetMbps = setup.ServerBudgetMbps
	srvCfg.TotalSlots = cfg.Slots
	srvCfg.ShaperFor = shaperFor
	srvCfg.SizeModelSeed = uint64(cfg.Seed)
	srvCfg.RetransmitOnNack = cfg.LossHandling
	srv, err := server.New(srvCfg)
	if err != nil {
		return nil, err
	}

	// Clients: one goroutine per emulated smartphone, replaying a
	// generated motion trace.
	scenes := motion.Scenes()
	results := make([]*client.Result, setup.Users)
	errs := make([]error, setup.Users)
	var wg sync.WaitGroup
	for u := 0; u < setup.Users; u++ {
		trace := motion.Generate(scenes[u%2], u, cfg.Slots+64, 1/cfg.SlotDuration.Seconds(), cfg.Seed)
		ccfg := client.DefaultConfig(uint32(u), srv.ControlAddr(), trace)
		ccfg.SlotDuration = cfg.SlotDuration
		ccfg.Params = cfg.ClientParams
		ccfg.NackLost = cfg.LossHandling
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			results[u], errs[u] = client.Run(ccfg)
		}(u)
	}

	<-srv.Done()
	serverStats := srv.Stats()
	srv.Close() // closes control conns; clients drain and return
	wg.Wait()

	res := &Result{Algorithm: allocName, ServerStats: serverStats}
	var users []metrics.Report
	for u := 0; u < setup.Users; u++ {
		if errs[u] != nil {
			return nil, fmt.Errorf("testbed: client %d: %w", u, errs[u])
		}
		users = append(users, results[u].Report)
	}
	res.PerUser = users
	res.Aggregate = averageReports(users)
	res.FPS = res.Aggregate.FPSFrac / cfg.SlotDuration.Seconds()
	return res, nil
}

// RunAll executes the standard algorithm set (proposed, Firefly, PAVQ) on a
// setup, reusing the configuration for comparability.
func RunAll(cfg Config) ([]*Result, error) {
	algs := []struct {
		name string
		mk   func() core.Allocator
	}{
		{"proposed", func() core.Allocator { return core.NewSolverAllocator() }},
		{"firefly", func() core.Allocator { return newFirefly() }},
		{"pavq", func() core.Allocator { return newPAVQ() }},
	}
	out := make([]*Result, 0, len(algs))
	for _, a := range algs {
		r, err := Run(cfg, a.name, a.mk())
		if err != nil {
			return nil, fmt.Errorf("testbed: %s: %w", a.name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func averageReports(users []metrics.Report) metrics.Report {
	var agg metrics.Report
	if len(users) == 0 {
		return agg
	}
	for _, r := range users {
		agg.QoE += r.QoE
		agg.Quality += r.Quality
		agg.Delay += r.Delay
		agg.Variance += r.Variance
		agg.Coverage += r.Coverage
		agg.FPSFrac += r.FPSFrac
	}
	n := float64(len(users))
	agg.QoE /= n
	agg.Quality /= n
	agg.Delay /= n
	agg.Variance /= n
	agg.Coverage /= n
	agg.FPSFrac /= n
	return agg
}

func newFirefly() core.Allocator { return baseline.NewFirefly() }
func newPAVQ() core.Allocator    { return baseline.NewPAVQ() }

// bucketShaper adapts netem.TokenBucket to transport.Shaper.
type bucketShaper struct{ b *netem.TokenBucket }

func (s bucketShaper) Admit(n int, now time.Time) time.Duration { return s.b.Admit(n, now) }
func (s bucketShaper) Drop() bool                               { return false }

// lossShaper adapts netem.LossModel to transport.Shaper.
type lossShaper struct{ l *netem.LossModel }

func (s lossShaper) Admit(int, time.Time) time.Duration { return 0 }
func (s lossShaper) Drop() bool                         { return s.l.Drop() }

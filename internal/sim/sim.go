// Package sim is the trace-based simulation platform of Section IV. It
// replays 6-DoF motion traces and network-throughput traces through the
// full decision pipeline — motion prediction, tile selection, rate tables
// from the content size model, M/M/1 delivery delay (eq. (13)) — and runs
// any set of core.Allocator implementations over identical inputs,
// collecting the per-user QoE components whose CDFs are Figs. 2 and 3.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/nettrace"
	"repro/internal/obs"
	"repro/internal/randsrc"
	"repro/internal/step"
	"repro/internal/tiles"
	"repro/internal/trace"
)

const (
	// slotsPerSecond is the display rate (paper: 60).
	slotsPerSecond float64 = 60
	// serverMbpsPerUser scales the shared budget: B = serverMbpsPerUser * N
	// (paper: 36).
	serverMbpsPerUser = 36
)

// Config parametrizes one simulation campaign.
type Config struct {
	Users   int     // N (paper: 5 and 30)
	Seconds float64 // trace length (paper: 300)
	Runs    int     // independent trace draws per user (paper: 100)
	Seed    int64
	Params  core.Params
	// IncludeOptimal adds the per-slot brute-force optimum (paper: 5 users
	// only; cost is L^N per slot).
	IncludeOptimal bool
	// NetKinds optionally overrides the trace profile per user (index
	// modulo length). Empty means the paper's half-broadband/half-LTE mix.
	NetKinds []nettrace.Kind
	// EstimateAlpha switches the simulation from the paper's Section IV
	// assumption ("the server has the perfect knowledge of the delay and
	// throughput") to the real system's imperfect estimation: algorithms
	// see an EMA with this smoothing factor over one-slot-delayed, noisy
	// throughput samples, while the environment applies the truth. 0 means
	// perfect knowledge. This reproduces the mechanism behind Figs. 7/8
	// deterministically.
	EstimateAlpha float64
	// EstimateNoise is the relative std-dev of each throughput sample fed
	// to the estimator (only with EstimateAlpha > 0).
	EstimateNoise float64
	// Recorder, when non-nil, receives one obs.SlotRecord per (slot,
	// algorithm): chosen levels, greedy branch, quality_verification
	// rejections, budget utilization, objective terms, and — when the
	// brute-force optimum runs in the same campaign — per-slot and
	// per-user regret versus it. Nil disables tracing with near-zero
	// overhead.
	Recorder *obs.Recorder
	// CounterfactualK, when positive, additionally records each slot's
	// top-K unchosen upgrades (the counterfactual alternatives of the
	// greedy pass) in the flight-recorder records. Requires Recorder.
	CounterfactualK int
	// Tracer, when non-nil, emits virtual-time spans — the same schema as
	// the live engine — for the campaign's first run only (the remaining
	// runs are statistical repeats). The trace epoch is salted per
	// algorithm so replays over identical inputs occupy distinct trace
	// spaces instead of merging into one trace.
	Tracer *trace.Tracer
	// TraceEpoch salts trace-ID derivation.
	TraceEpoch uint64
}

// DefaultConfig returns the paper's simulation parameters for n users.
// Seconds and Runs are scaled down from the paper's 300 s x 100 runs by
// default to keep a laptop run short; pass the full values explicitly to
// reproduce at scale.
func DefaultConfig(n int) Config {
	return Config{
		Users:          n,
		Seconds:        60,
		Runs:           20,
		Seed:           1,
		Params:         core.DefaultSimParams(),
		IncludeOptimal: n <= 6,
	}
}

// algorithmFactory builds a fresh allocator per run, so stateful algorithms
// (Firefly's LRU clock, PAVQ's price) do not leak state across runs.
type algorithmFactory struct {
	Name string
	New  func() core.Allocator
}

// StandardAlgorithms returns the paper's comparison set: Algorithm 1
// ("proposed"), Firefly, and modified PAVQ. includeOptimal appends the
// per-slot brute-force optimum.
func StandardAlgorithms(includeOptimal bool) []algorithmFactory {
	algs := []algorithmFactory{
		{Name: "proposed", New: func() core.Allocator { return core.NewSolverAllocator() }},
		{Name: "firefly", New: func() core.Allocator { return baseline.NewFirefly() }},
		{Name: "pavq", New: func() core.Allocator { return baseline.NewPAVQ() }},
	}
	if includeOptimal {
		algs = append(algs, algorithmFactory{
			Name: "optimal", New: func() core.Allocator { return core.Optimal{} },
		})
	}
	return algs
}

// Result holds per-(run, user) samples of every QoE component for one
// algorithm; each slice has Runs*Users entries. Fairness has one Jain
// index per run (an extension beyond the paper's averaged metrics).
type Result struct {
	Name     string
	QoE      []float64
	Quality  []float64
	Delay    []float64
	Variance []float64
	Fairness []float64
}

// CDFs converts the samples into the four CDFs of a Fig. 2/3 row.
func (r *Result) CDFs() (qoe, quality, delay, variance *metrics.CDF) {
	return metrics.NewCDF(r.QoE), metrics.NewCDF(r.Quality),
		metrics.NewCDF(r.Delay), metrics.NewCDF(r.Variance)
}

// deadlineSlots is the display pipeline's tolerance under imperfect
// estimation: decode at t+1, display at t+2 (the virtual engine's, too).
const deadlineSlots = 2

// slotInput is the precomputed, algorithm-independent input of one
// (slot, user) pair.
type slotInput struct {
	rates   []float64 // f^R ladder of the predicted tile selection
	covered bool      // 1_n(t)
	cap_    float64   // B_n(t)
}

// Run executes the campaign and returns one Result per algorithm, in the
// order of the factories.
func Run(cfg Config, algorithms []algorithmFactory) ([]*Result, error) {
	if cfg.Users <= 0 || cfg.Runs <= 0 {
		return nil, fmt.Errorf("sim: users and runs must be positive")
	}
	slots := int(cfg.Seconds * slotsPerSecond)
	if slots <= 0 {
		return nil, fmt.Errorf("sim: no slots (seconds=%v)", cfg.Seconds)
	}
	if len(algorithms) == 0 {
		return nil, fmt.Errorf("sim: no algorithms")
	}

	results := make([]*Result, len(algorithms))
	for i, alg := range algorithms {
		results[i] = &Result{Name: alg.Name}
	}

	// One run per claim of a fork-join over the runs. Each run lands in its
	// own slot and the merge below walks them in run order, so the sample
	// vectors do not depend on which participant finished first.
	perRun := make([][]*Result, cfg.Runs)
	errs := make([]error, cfg.Runs)
	fj := step.NewForkJoin(0)
	defer fj.Close()
	fj.Run(cfg.Runs, 1, func(run int) {
		perRun[run], errs[run] = simulateOneRun(cfg, slots, run, algorithms)
	})
	for run, runResults := range perRun {
		if errs[run] != nil {
			return nil, errs[run]
		}
		for i, rr := range runResults {
			results[i].QoE = append(results[i].QoE, rr.QoE...)
			results[i].Quality = append(results[i].Quality, rr.Quality...)
			results[i].Delay = append(results[i].Delay, rr.Delay...)
			results[i].Variance = append(results[i].Variance, rr.Variance...)
			results[i].Fairness = append(results[i].Fairness, rr.Fairness...)
		}
	}
	return results, nil
}

// simulateOneRun prepares one draw of motion + network traces and replays
// every algorithm over the identical inputs.
func simulateOneRun(cfg Config, slots, run int, algorithms []algorithmFactory) ([]*Result, error) {
	seed := cfg.Seed + int64(run)*7919
	rng := randsrc.NewRand(seed)

	// Network traces: the paper's half-broadband/half-LTE mix, or an
	// explicit per-user profile, fresh per run.
	caps := make([][]float64, cfg.Users)
	if len(cfg.NetKinds) > 0 {
		for u := range caps {
			tr := nettrace.Generate(cfg.NetKinds[u%len(cfg.NetKinds)], nettrace.DefaultConfig(), rng)
			caps[u] = tr.Slotted(slots, slotsPerSecond)
		}
	} else {
		netTraces := nettrace.GenerateMix(cfg.Users, nettrace.DefaultConfig(), rng)
		for u := range caps {
			caps[u] = netTraces[u].Slotted(slots, slotsPerSecond)
		}
	}

	// Motion traces and the algorithm-independent half of the slot step:
	// prediction, tile selection, rate ladders, coverage — computed once per
	// (user, slot) and replayed under every algorithm.
	env := &step.Env{
		Model:    tiles.NewSizeModel(uint64(cfg.Seed)),
		Coverage: motion.DefaultCoverage(),
		SlotMs:   1000 / slotsPerSecond,
	}
	inputs := make([][]slotInput, cfg.Users) // [user][slot]
	scenes := motion.Scenes()
	for u := 0; u < cfg.Users; u++ {
		mt := motion.Generate(scenes[u%2], u, slots, slotsPerSecond, seed)
		pred := motion.NewPredictor(motion.DefaultWindow)
		inputs[u] = make([]slotInput, slots)
		ladders := make([]float64, slots*tiles.Levels) // every slot's ladder, one slab
		var plan step.Plan
		for s := 0; s < slots; s++ {
			plan.Rates = ladders[s*tiles.Levels : (s+1)*tiles.Levels : (s+1)*tiles.Levels]
			covered := plan.Follow(env, pred, s <= motion.DefaultWindow, mt[s])
			inputs[u][s] = slotInput{rates: plan.Rates, covered: covered, cap_: caps[u][s]}
		}
	}

	budget := serverMbpsPerUser * float64(cfg.Users)
	out := make([]*Result, len(algorithms))
	records := make([][]obs.SlotRecord, len(algorithms))
	for i, factory := range algorithms {
		out[i], records[i] = replayAlgorithm(cfg, env, slots, budget, inputs, factory, seed, run)
	}
	emitRecords(cfg, algorithms, records)
	return out, nil
}

// emitRecords joins per-algorithm slot records against the offline optimum
// (when it ran) to fill the regret field, then hands everything to the
// recorder.
func emitRecords(cfg Config, algorithms []algorithmFactory, records [][]obs.SlotRecord) {
	if !cfg.Recorder.Enabled() {
		return
	}
	optIdx := -1
	for i, f := range algorithms {
		if f.Name == "optimal" {
			optIdx = i
		}
	}
	for i := range records {
		for j := range records[i] {
			rec := &records[i][j]
			if optIdx >= 0 {
				opt := &records[optIdx][j]
				rec.OptimalValue = opt.Value
				rec.HasRegret = true
				if r := opt.Value - rec.Value; r > 0 {
					rec.Regret = r
				}
				// Per-user shortfall versus the optimum's allocation of the
				// identical inputs — the rows regret attribution runs on.
				if len(opt.UserValues) == len(rec.UserValues) {
					rec.UserRegret = make([]float64, len(rec.UserValues))
					for u := range rec.UserValues {
						rec.UserRegret[u] = opt.UserValues[u] - rec.UserValues[u]
					}
				}
			}
			cfg.Recorder.Record(rec)
		}
	}
}

// replayAlgorithm runs one allocator over the precomputed inputs and
// collects per-user metrics. With a recorder attached it also returns one
// flight-recorder record per slot (regret is filled in later by
// emitRecords, once the optimum's values are known).
func replayAlgorithm(cfg Config, env *step.Env, slots int, budget float64, inputs [][]slotInput, factory algorithmFactory, seed int64, run int) (*Result, []obs.SlotRecord) {
	alloc := factory.New()
	recording := cfg.Recorder.Enabled()
	// Spans: the campaign's runs beyond the first are statistical repeats,
	// so only run 0 is traced; the epoch salt keeps each algorithm's replay
	// of the identical inputs in its own trace space.
	spans := step.VirtualSpans{Algo: factory.Name, SlotMs: env.SlotMs, Users: cfg.Users}
	if run == 0 {
		spans.Tracer = cfg.Tracer
		spans.Epoch = algoEpoch(cfg.TraceEpoch, factory.Name)
	}
	spanning := spans.Tracer.Enabled()
	var records []obs.SlotRecord
	if recording {
		records = make([]obs.SlotRecord, 0, slots)
	}
	sessions := make([]step.Session, cfg.Users)
	acc := make([]*metrics.UserQoE, cfg.Users)
	qoeParams := metrics.QoEParams{Alpha: cfg.Params.Alpha, Beta: cfg.Params.Beta}
	for u := range acc {
		acc[u] = metrics.NewUserQoE(qoeParams)
	}

	// Imperfect estimation mode: algorithms consume an EMA over delayed,
	// noisy samples of B_n(t); the environment keeps using the truth. The
	// noise stream is seeded identically across algorithms so the
	// comparison stays paired.
	var estimators []*estimate.EMA
	var estRng *rand.Rand
	if cfg.EstimateAlpha > 0 {
		estimators = make([]*estimate.EMA, cfg.Users)
		for u := range estimators {
			estimators[u] = estimate.NewEMA(cfg.EstimateAlpha)
		}
		estRng = randsrc.NewRand(seed ^ 0x5EED)
	}
	// Under the paper's perfect knowledge nothing misses: the full queueing
	// delay is charged. Under imperfect estimation content that takes longer
	// than the display pipeline tolerates is dropped, as on the real client,
	// rather than charged an unbounded delay.
	deadlineMs := math.Inf(1)
	if estimators != nil {
		deadlineMs = deadlineSlots * env.SlotMs
	}

	users := make([]core.UserInput, cfg.Users)
	for s := 0; s < slots; s++ {
		var capErr []float64
		if recording && estimators != nil {
			capErr = make([]float64, cfg.Users) // fresh: the record retains it
		}
		for u := 0; u < cfg.Users; u++ {
			in := inputs[u][s]
			seenCap := in.cap_
			if estimators != nil {
				if s > 0 {
					sample := inputs[u][s-1].cap_ * (1 + estRng.NormFloat64()*cfg.EstimateNoise)
					if sample < 0.1 {
						sample = 0.1
					}
					estimators[u].Update(sample)
				}
				if estimators[u].Primed() {
					seenCap = estimators[u].Value()
				}
			}
			if capErr != nil && in.cap_ > 0 {
				capErr[u] = (seenCap - in.cap_) / in.cap_
			}
			sessions[u].Rates = in.rates
			users[u] = sessions[u].Input(env, seenCap, nil)
		}
		problem := &core.SlotProblem{T: s + 1, Budget: budget, Users: users}
		var solveStart time.Time
		if spanning {
			solveStart = time.Now()
		}
		allocation, slotTrace := step.Solve(alloc, cfg.Params, problem, recording, cfg.CounterfactualK)
		if spanning {
			spans.Slot, spans.SolveNs = uint32(s), time.Since(solveStart).Nanoseconds()
		}
		if recording {
			rec := step.Record(factory.Name, cfg.Params, s, problem, allocation, slotTrace)
			rec.Run, rec.CapErr = run, capErr
			records = append(records, rec)
		}
		for u := 0; u < cfg.Users; u++ {
			in := inputs[u][s]
			q := allocation.Levels[u]
			rate, delay, missed := sessions[u].Settle(env, acc[u], q, in.cap_, in.covered, false, 0, 0, deadlineMs)
			if spanning {
				spans.Emit(uint32(u), q, rate, delay, missed)
			}
		}
	}

	res := &Result{Name: factory.Name}
	for u := 0; u < cfg.Users; u++ {
		res.QoE = append(res.QoE, acc[u].QoE())
		res.Quality = append(res.Quality, acc[u].AvgQuality())
		res.Delay = append(res.Delay, acc[u].AvgDelay())
		res.Variance = append(res.Variance, acc[u].Variance())
	}
	res.Fairness = []float64{metrics.JainIndex(res.QoE)}
	return res, records
}

// algoEpoch mixes an algorithm name into the trace epoch (FNV-1a style) so
// per-algorithm replays of the same (user, slot) grid derive distinct
// deterministic trace IDs.
func algoEpoch(base uint64, name string) uint64 {
	h := base ^ 14695981039346656037
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

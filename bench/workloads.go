package main

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/fleet/coord"
	"repro/internal/load"
	"repro/internal/motion"
	"repro/internal/obs"
)

// budget sizes the timed part of a run: Seconds of wall time, or — when
// Slots is set (the smoke test) — exactly one pass over a horizon of that
// many slots.
type budget struct {
	Seconds float64
	Slots   int
}

// runResult is what the timed part of a run produced. The per-segment
// costs (wall time, CPU time, allocations against session-slots served) are
// on the meter the run was given.
type runResult struct {
	SessionSlots int       // session-slots served
	Attempted    int       // sessions
	Failed       int       // sessions that errored, were refused, or served < 95 % of their slots
	Ontime       float64   // frames displayed by their deadline / frames due (live: the median session's)
	ViewedLevel  float64   // mean viewed quality level (live: the median session's)
	DeliveryMs   []float64 // per session: mean first-to-last-packet delivery delay
	Quality      []float64 // per session: mean viewed quality level
	Coverage     []float64 // per session: share of slots whose view was covered
	QoE          []float64 // per session: quality - alpha*delay - beta*variance
	Problems     []string  // failed output checks
	Passes       int       // back-to-back passes over the inputs (1 for a live run)
	Layers       map[string]float64
}

func (r *runResult) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runner holds one workload's generated inputs and runs the timed part over
// them, marking a segment boundary on the meter once a second (live) or
// once a pass (sim). tel is nil in an end-to-end run.
type runner interface {
	run(b budget, tel *telemetry, m *meter) (*runResult, error)
}

type workload struct {
	Name string
	Why  string
	Loop string // how load is offered, for the README and the header line
	// TraceSample keeps one trace ID in this many in a traced run (0: all).
	TraceSample uint64
	// setup builds the inputs from the seed and warms the process up with a
	// short untimed pass.
	setup func(seed int64, b budget) (runner, error)
}

var workloads = []workload{
	{
		Name: "live_clean",
		Why:  "16 sessions on loopback sockets, fixed link rates, no loss, levels held at the ladder's floor: the data-plane fast path (ledger, tile store, packetize, write, reassembly, ACK) dominates",
		Loop: "open loop, 16 sessions x 60 Hz on the wall clock",
		setup: func(seed int64, b budget) (runner, error) {
			return setupLive(rigConfig{Users: 16, Routers: 1, RouterMbps: 320, Seed: seed}, b)
		},
	},
	{
		Name: "live_lossy",
		Why:  "the paper's Setup 2 (15 users, 2 routers, fading links) with 2 % packet loss: the same layers through NACK, retransmission, reassembly gaps and capacity-estimate swings",
		Loop: "open loop, 15 sessions x 60 Hz on the wall clock",
		setup: func(seed int64, b budget) (runner, error) {
			return setupLive(rigConfig{Users: 15, Routers: 2, RouterMbps: 400, JitterFrac: 0.30, LossProb: 0.02, Seed: seed}, b)
		},
	},
	{
		Name:  "sim_dense",
		Why:   "4000 concurrent sessions in virtual time under a binding budget: the parallel build (predict, select, rate and delay tables) and the serial lower+solve dominate; no sockets, no fleet",
		Loop:  "closed-loop batch, 4000 sessions, passes repeated back to back",
		setup: setupDense, TraceSample: simTraceSample,
	},
	{
		Name:  "fleet_churn",
		Why:   "Poisson arrivals and departures over 4 shards and 3 coordinators with a shard drain, a leader kill and a partition: placement, coord proposals, rebalance, evacuation and SLO tracking carry the load",
		Loop:  "closed-loop batch, about 900 concurrent sessions, passes repeated back to back",
		setup: setupChurn, TraceSample: simTraceSample,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- live_clean, live_lossy ------------------------------------------------

// liveWarmSlots is the untimed warm-up run of a live set-up: long enough to
// fault in the runtime's stacks and pools, the gob type tables and the
// socket paths.
const liveWarmSlots = 30

type liveRunner struct {
	cfg    rigConfig
	traces []motion.Trace
}

func (b budget) liveSlots() int {
	if b.Slots > 0 {
		return b.Slots
	}
	return int(b.Seconds * 60)
}

func setupLive(cfg rigConfig, b budget) (runner, error) {
	r := &liveRunner{cfg: cfg, traces: liveTraces(cfg.Users, b.liveSlots(), cfg.Seed)}
	warm := cfg
	warm.Slots = liveWarmSlots
	if _, err := runRig(warm, r.traces); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *liveRunner) run(b budget, tel *telemetry, m *meter) (*runResult, error) {
	cfg := r.cfg
	cfg.Slots = b.liveSlots()
	cfg.EachSecond = m.mark
	if tel != nil {
		cfg.Metrics, cfg.Tracer, cfg.Solve, cfg.Pacing = tel.reg, tel.tracer, tel.log, tel.pacing
	}
	res, err := runRig(cfg, r.traces)
	if err != nil {
		return nil, err
	}
	// A session is cut short when it displayed under 95 % of the slots it
	// could have: the server's per-session send queue holds 32 slot batches,
	// and a session whose link is in a fade when the slot loop stops never
	// receives what is still queued.
	const sendQueueSlots = 32
	minServed := 0.95 * float64(cfg.Slots-sendQueueSlots)
	out := &runResult{Attempted: cfg.Users, Passes: 1, SessionSlots: slotsServed(res.Server)}
	m.finish(out.SessionSlots)
	var ontime []float64
	nacks := 0
	for u, c := range res.Clients {
		switch {
		case res.Errs[u] != nil:
			out.Failed++
			out.problemf("client %d: %v", u, res.Errs[u])
			continue
		case float64(c.Slots) < minServed:
			out.Failed++
			out.problemf("client %d served %d of %d slots", u, c.Slots, cfg.Slots)
		case c.Bytes == 0:
			out.problemf("client %d received no bytes", u)
		}
		ontime = append(ontime, c.Report.FPSFrac)
		out.DeliveryMs = append(out.DeliveryMs, c.Report.Delay)
		out.Quality = append(out.Quality, c.Report.Quality)
		out.Coverage = append(out.Coverage, c.Report.Coverage)
		out.QoE = append(out.QoE, c.Report.QoE)
		nacks += c.Nacks
	}
	// The median session, not the mean: the client emulator never
	// re-synchronises its display clock once a scheduling hiccup of a slot
	// or more has let it run ahead of the stream, so on a shared machine
	// about one run in eight leaves a few sessions reading 0.7-0.9 on-time
	// (and half the coverage) for the rest of the run. That is a fidelity
	// gap in the emulator, not a property of the commit being measured.
	out.Ontime = median(ontime)
	out.ViewedLevel = median(out.Quality)
	retransmits := 0
	for _, st := range res.Server {
		retransmits += st.Retransmits
	}
	switch {
	case cfg.LossProb == 0 && retransmits != 0:
		out.problemf("%d retransmits on a lossless link", retransmits)
	case cfg.LossProb > 0 && (retransmits == 0 || nacks == 0):
		out.problemf("lossy link saw %d retransmits and %d NACKed tiles", retransmits, nacks)
	}
	if tel != nil {
		out.Layers = map[string]float64{
			"load.peak_concurrent":  float64(cfg.Users),
			"load.sessions_spawned": float64(cfg.Users),
		}
		tel.liveLayers(out.Layers, out.SessionSlots)
		tel.solveLayers(out.Layers, m.cpu())
	}
	return out, nil
}

// ---- sim_dense ---------------------------------------------------------------

const (
	denseSessions = 4000
	// denseHorizon keeps one pass near a second on two cores, so a segment
	// holds several and overshoots its budget by at most one.
	denseHorizon = 240
	// denseBudgetPerSession binds: the mean level sits near 1.4, so the
	// greedy does real upgrade work every slot.
	denseBudgetPerSession = 18.0
	// denseWarmSlots is the untimed warm-up pass of sim_dense's set-up.
	denseWarmSlots = 30
	// simTraceSample keeps one trace ID in this many in a traced sim pass:
	// the engines emit four spans per session-slot.
	simTraceSample = 64
)

type denseRunner struct {
	w   *load.Workload
	ref *load.RunReport // first pass; every later one must equal it
}

func denseWorkload(seed int64, horizon int) (*load.Workload, error) {
	return load.Generate(load.Config{
		Shape: load.Steady, Seed: seed, Sessions: denseSessions, HorizonSlots: horizon,
	})
}

func denseConfig(tel *telemetry) load.SimConfig {
	return load.SimConfig{
		BudgetMbps:   denseBudgetPerSession * denseSessions,
		NewAllocator: tel.newAllocator(),
		AllocName:    "proposed",
		Metrics:      tel.registry(),
		Tracer:       tel.tracing(),
	}
}

func setupDense(seed int64, b budget) (runner, error) {
	horizon := denseHorizon
	if b.Slots > 0 {
		horizon = b.Slots
	}
	w, err := denseWorkload(seed, horizon)
	if err != nil {
		return nil, err
	}
	warm, err := denseWorkload(seed, denseWarmSlots)
	if err != nil {
		return nil, err
	}
	if _, err := load.Simulate(warm, denseConfig(nil)); err != nil {
		return nil, err
	}
	return &denseRunner{w: w}, nil
}

func (r *denseRunner) run(b budget, tel *telemetry, m *meter) (*runResult, error) {
	out := &runResult{}
	var rep *load.RunReport
	err := repeatFor(b, func() error {
		var err error
		if rep, err = load.Simulate(r.w, denseConfig(tel)); err != nil {
			return err
		}
		if r.ref == nil {
			r.ref = rep
		} else if !reflect.DeepEqual(rep, r.ref) {
			out.problemf("pass report differs from the first pass on the same inputs")
		}
		out.addSimPass(r.w, rep)
		m.mark(out.SessionSlots)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.finishSim(rep)
	if tel != nil {
		out.Layers = map[string]float64{
			"load.peak_concurrent":  float64(rep.PeakConcurrent),
			"load.sessions_spawned": float64(rep.Spawned),
		}
		tel.solveLayers(out.Layers, m.cpu())
	}
	return out, nil
}

// repeatFor runs pass back to back until the budget's seconds are used up
// (once, for a slot-sized budget).
func repeatFor(b budget, pass func() error) error {
	deadline := time.Now().Add(time.Duration(b.Seconds * float64(time.Second)))
	for {
		if err := pass(); err != nil {
			return err
		}
		if b.Slots > 0 || !time.Now().Before(deadline) {
			return nil
		}
	}
}

// addSimPass accounts one virtual-time pass: its session-slots, and the
// sessions that were refused or cut short.
func (r *runResult) addSimPass(w *load.Workload, rep *load.RunReport) {
	due := make(map[uint32]int, len(w.Sessions))
	for _, s := range w.Sessions {
		due[s.ID] = s.Slots()
	}
	r.Passes++
	r.Attempted += rep.Spawned
	r.Failed += rep.Failed
	for _, o := range rep.Outcomes {
		r.SessionSlots += o.Slots
		if float64(o.Slots) < 0.95*float64(due[o.ID]) {
			r.Failed++
		}
	}
	if rep.Completed+rep.Failed != rep.Spawned {
		r.problemf("completed %d + failed %d != spawned %d", rep.Completed, rep.Failed, rep.Spawned)
	}
}

// finishSim takes the per-session figures from one pass; the passes of a run
// are identical, which addSimPass's caller has checked.
func (r *runResult) finishSim(rep *load.RunReport) {
	r.Ontime = 1 - rep.AggregateMissRate()
	for _, o := range rep.Outcomes {
		r.DeliveryMs = append(r.DeliveryMs, o.DelayMs)
		r.Quality = append(r.Quality, o.Quality)
		r.Coverage = append(r.Coverage, o.Coverage)
		r.QoE = append(r.QoE, o.QoE)
	}
	r.ViewedLevel = mean(r.Quality)
}

// ---- fleet_churn -------------------------------------------------------------

const (
	churnHorizon      = 600
	churnArrivalsPerS = 300
	churnHoldSec      = 3
	churnShards       = 4
	churnCoordinators = 3
	churnLeaseSlots   = 8
	// churnWarmSlots is the untimed warm-up pass of fleet_churn's set-up:
	// long enough for its scaled fault schedule to fire, so the election
	// and migration paths are warm too.
	churnWarmSlots = 150
	// churnBudgetMbps is the fleet-wide B(t): about 18 Mbps for each of the
	// roughly 900 concurrent sessions, binding as in sim_dense.
	churnBudgetMbps = 16000
)

// churnProfile is examples/chaos/coordkill.json scaled to the horizon: a
// shard drains, the coordinator leader dies mid-drain and later restarts,
// and the leader elected in its place is partitioned long enough to be
// deposed. A brown-out on a third shard pages its sessions' SLOs, which is
// what gives the breaker and the evacuation loop something to do.
func churnProfile(horizon int) *chaos.Profile {
	partition := horizon / 15
	if partition < churnLeaseSlots+4 {
		partition = churnLeaseSlots + 4
	}
	return &chaos.Profile{Name: "bench-coordkill", Seed: 42, Faults: []chaos.Fault{
		{Kind: chaos.FaultShardDrain, StartSlot: horizon / 4, DurationSlots: horizon / 4, Shard: 1},
		{Kind: chaos.FaultCoordKill, StartSlot: horizon/4 + 2, DurationSlots: horizon / 5, Replica: 0},
		{Kind: chaos.FaultCoordPartition, StartSlot: 2 * horizon / 3, DurationSlots: partition, Replica: 1},
		{Kind: chaos.FaultShardDegrade, StartSlot: horizon / 2, DurationSlots: horizon / 3, Shard: 2, Factor: 0.3},
	}}
}

// deferArrivals moves every arrival that falls inside a coordinator fault's
// lease window to the slot the lease has run out, keeping its hold time: the
// workload's clients re-dial once the election timeout has passed. The
// cluster refuses arrivals only while leaderless, and it documents that as
// at most LeaseSlots per leader loss — so on these inputs no placement may
// fail, and the output check below holds the control plane to that bound.
func deferArrivals(w *load.Workload, p *chaos.Profile, lease int) {
	for i := range w.Sessions {
		s := &w.Sessions[i]
		for _, f := range p.CoordFaults() {
			if end := f.StartSlot + lease; s.ArriveSlot >= f.StartSlot && s.ArriveSlot < end {
				s.DepartSlot += end - s.ArriveSlot
				s.ArriveSlot = end
			}
		}
		if s.DepartSlot > w.Cfg.HorizonSlots {
			s.DepartSlot = w.Cfg.HorizonSlots
		}
	}
	sort.SliceStable(w.Sessions, func(i, j int) bool {
		a, b := w.Sessions[i], w.Sessions[j]
		return a.ArriveSlot < b.ArriveSlot || (a.ArriveSlot == b.ArriveSlot && a.ID < b.ID)
	})
}

type churnRunner struct {
	w       *load.Workload
	profile *chaos.Profile
	ref     *load.FleetReport
}

func churnWorkload(seed int64, horizon int) (*load.Workload, *chaos.Profile, error) {
	w, err := load.Generate(load.Config{
		Shape: load.Poisson, Seed: seed, HorizonSlots: horizon,
		RatePerSec: churnArrivalsPerS, MeanHoldSec: churnHoldSec,
	})
	if err != nil {
		return nil, nil, err
	}
	p := churnProfile(horizon)
	deferArrivals(w, p, churnLeaseSlots)
	return w, p, nil
}

// churnConfig builds a fresh control plane per pass: the SLO monitor and the
// breaker carry per-session state, and a pass must not inherit the last one's.
func churnConfig(p *chaos.Profile, tel *telemetry) load.FleetSimConfig {
	reg := tel.registry()
	bcfg := obs.DefaultBreakerConfig()
	bcfg.Levels = 6
	cfg := load.FleetSimConfig{
		Shards:       churnShards,
		Coordinators: churnCoordinators,
		Coord:        coord.Config{LeaseSlots: churnLeaseSlots},
		Evac:         fleet.EvacConfig{Enabled: true},
	}
	cfg.Sim = load.SimConfig{
		BudgetMbps:   churnBudgetMbps,
		NewAllocator: tel.newAllocator(),
		AllocName:    "proposed",
		Metrics:      reg,
		SLO:          obs.NewSLOMonitor(obs.DefaultSLOConfig(), reg),
		Breaker:      obs.NewBreaker(bcfg, reg),
		Chaos:        p,
	}
	return cfg
}

func setupChurn(seed int64, b budget) (runner, error) {
	horizon := churnHorizon
	if b.Slots > 0 {
		horizon = b.Slots
	}
	w, p, err := churnWorkload(seed, horizon)
	if err != nil {
		return nil, err
	}
	warm, wp, err := churnWorkload(seed, churnWarmSlots)
	if err != nil {
		return nil, err
	}
	if _, err := load.SimulateFleet(warm, churnConfig(wp, nil)); err != nil {
		return nil, err
	}
	return &churnRunner{w: w, profile: p}, nil
}

func (r *churnRunner) run(b budget, tel *telemetry, m *meter) (*runResult, error) {
	out := &runResult{}
	var rep *load.FleetReport
	err := repeatFor(b, func() error {
		var err error
		if rep, err = load.SimulateFleet(r.w, churnConfig(r.profile, tel)); err != nil {
			return err
		}
		if r.ref == nil {
			r.ref = rep
		} else if !reflect.DeepEqual(rep, r.ref) {
			out.problemf("pass report differs from the first pass on the same inputs")
		}
		out.addSimPass(r.w, &rep.RunReport)
		m.mark(out.SessionSlots)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.finishSim(&rep.RunReport)
	switch c := rep.Coord; {
	case c == nil || !c.Converged:
		out.problemf("coordinator replicas did not converge")
	case c.Elections < 1:
		out.problemf("no election despite a leader kill")
	}
	if rep.Migrations < 1 {
		out.problemf("no migration despite a shard drain")
	}
	if rep.PlacementsFailed != 0 {
		out.problemf("%d placements refused outside the lease windows", rep.PlacementsFailed)
	}
	if tel != nil {
		out.Layers = map[string]float64{
			"load.peak_concurrent":  float64(rep.PeakConcurrent),
			"load.sessions_spawned": float64(rep.Spawned),
		}
		tel.fleetLayers(out.Layers, rep, out.Passes)
		tel.solveLayers(out.Layers, m.cpu())
	}
	return out, nil
}

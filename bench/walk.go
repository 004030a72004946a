package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/fleet"
	"repro/internal/fleet/coord"
	"repro/internal/knapsack"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/tiles"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vrmath"
)

// The layer walk replays the head of sim_dense's inputs through each layer's
// exported calls from one goroutine, one span per call. A call handles one
// slot's whole batch of sessions (as the engines do), so the clock readings
// around it cost a fraction of a percent; a metric is the median over the
// spans of one name of duration / operations.
const (
	walkSessions = 256
	walkSlots    = 600
	// microBatches is how many spans each stand-alone layer loop records.
	microBatches = 40
)

// walkChild runs the walk, reports its metrics and writes its spans.
func walkChild(seed int64, outDir string) (*workloadResult, error) {
	wk := &walker{log: newSpanLog(), out: map[string]float64{}}
	if err := wk.replay(seed); err != nil {
		return nil, err
	}
	if err := wk.micro(seed); err != nil {
		return nil, err
	}
	// How much of the replay was the walk's own bookkeeping between layer
	// calls, not layer work: the self time of its per-slot spans.
	var own, total int64
	for i, self := range selfTimes(wk.log.spans) {
		if sp := wk.log.spans[i]; sp.Name == "walk.slot" {
			own, total = own+self, total+sp.dur()
		}
	}
	fmt.Fprintf(os.Stderr, "walk: %d spans; %.1f%% of the replay was spent between layer calls\n",
		len(wk.log.spans), 100*ratio(float64(own), float64(total)))

	wr := &workloadResult{Workload: "walk", Problems: wk.problems, Layers: map[string]stat{}}
	for _, d := range walkMetrics {
		v, direct := wk.out[d.Name]
		samples := wk.log.nsPerOp(d.Name)
		if !direct {
			v = median(samples)
			if d.Unit == "us" {
				v /= 1000
			}
		}
		wr.Layers[d.Name] = newStat(d.Unit, len(samples), []float64{v})
	}
	return wr, writeSpans(outDir, "walk", wk.log.spans, nil)
}

type walker struct {
	log      *spanLog
	out      map[string]float64 // metrics that are not a span median
	problems []string

	// Handed from the replay to the stand-alone loops.
	users   []core.UserInput // one mid-run slot's problem rows (deep copies)
	stream  []tiles.VideoID  // the replay's admitted tile IDs, in order
	payload []byte           // one admitted tile of middling size, for transport
	slo     *obs.SLOMonitor  // carries the replay's sessions, for tsdb.sample
	reg     *obs.Registry
}

func (wk *walker) problemf(format string, args ...any) {
	wk.problems = append(wk.problems, fmt.Sprintf(format, args...))
}

// walkSession mirrors the sim engine's per-session state.
type walkSession struct {
	id     uint32
	arrive int
	trace  motion.Trace
	caps   []float64
	pred   *motion.Predictor
	acc    *metrics.UserQoE
	ledger *tiles.DeliveryLedger
	ram    *tiles.ClientRAM

	predicted vrmath.Pose
	cell      tiles.CellID
	sel       []tiles.TileID
	rates     []float64
	delays    []float64
	covered   bool

	t, coveredN int
	sumViewedQ  float64
}

// replay is the per-slot pipeline, layer by layer.
func (wk *walker) replay(seed int64) error {
	w, err := denseWorkload(seed, walkSlots)
	if err != nil {
		return err
	}
	params := core.DefaultSystemParams()
	cov := motion.DefaultCoverage()
	model := tiles.NewSizeModel(0)
	store := tiles.NewStore(model, 8192, 60) // the server's default capacity
	qoe := metrics.QoEParams{Alpha: params.Alpha, Beta: params.Beta}
	wk.reg = obs.NewRegistry()
	wk.slo = obs.NewSLOMonitor(obs.DefaultSLOConfig(), wk.reg)
	bcfg := obs.DefaultBreakerConfig()
	bcfg.Levels = params.Levels
	brk := obs.NewBreaker(bcfg, wk.reg)
	const slotMs = 1000.0 / 60

	// Sessions that are present for the whole walk: the workload ramps
	// arrivals over its first second, so take the earliest arrivals and
	// start at the slot the last of them has joined.
	sess := make([]*walkSession, walkSessions)
	first := 0
	for i := range sess {
		spec := w.Sessions[i]
		if spec.ArriveSlot > first {
			first = spec.ArriveSlot
		}
		sess[i] = &walkSession{
			id: spec.ID, arrive: spec.ArriveSlot, trace: w.MotionTrace(spec, 0), caps: w.CapSlots(spec),
			pred: motion.NewPredictor(0), acc: metrics.NewUserQoE(qoe),
			ledger: tiles.NewDeliveryLedger(), ram: tiles.NewClientRAM(512),
			rates: make([]float64, tiles.Levels), delays: make([]float64, tiles.Levels),
		}
	}
	local := func(s *walkSession, slot int) int { return slot - s.arrive }

	alloc := core.NewSolverAllocator()
	var solver knapsack.Solver
	users := make([]core.UserInput, walkSessions)
	problem := core.SlotProblem{Budget: denseBudgetPerSession * walkSessions, Users: users}
	packets, tilesSelected, selections := 0, 0, 0
	const chunk = transport.DefaultMTU - transport.HeaderSize

	root := wk.log.begin("walk.replay", -1)
	for slot := first; slot < walkSlots; slot++ {
		sp := wk.log.begin("walk.slot", root)
		n := len(sess)
		wk.log.timed("motion.predict_ns", sp, n, func() {
			for _, s := range sess {
				s.predicted = s.pred.Predict()
				s.pred.Observe(s.trace[local(s, slot)])
			}
		})
		wk.log.timed("motion.covered_ns", sp, n, func() {
			for _, s := range sess {
				s.covered = cov.Covered(s.predicted, s.trace[local(s, slot)])
			}
		})
		wk.log.timed("tiles.select_ns", sp, n, func() {
			for _, s := range sess {
				s.cell = tiles.CellFor(s.predicted.Pos)
				s.sel = tiles.ForViewAppend(s.sel[:0], s.predicted, cov.FoV, cov.MarginDeg)
			}
		})
		wk.log.timed("tiles.ratetable_ns", sp, n, func() {
			for _, s := range sess {
				model.RateTableInto(s.rates, s.cell, s.sel)
			}
		})
		wk.log.timed("netem.delaytable_ns", sp, n, func() {
			for _, s := range sess {
				netem.DelayTableMsInto(s.delays, s.rates, s.caps[local(s, slot)], slotMs)
			}
		})
		for i, s := range sess {
			tilesSelected += len(s.sel)
			selections++
			users[i] = core.UserInput{
				Rate: s.rates, Delay: s.delays, Cap: s.caps[local(s, slot)],
				Delta: (1 + float64(s.coveredN)) / float64(1+s.t),
			}
			if s.t > 0 {
				users[i].MeanQ = s.sumViewedQ / float64(s.t)
			}
		}
		problem.T = slot + 1

		var lowered *knapsack.Problem
		wk.log.timed("core.lower_ns", sp, n, func() { lowered = core.LowerProblem(params, &problem) })
		var solved knapsack.Solution
		wk.log.timed("knapsack.solve_ns", sp, n, func() { solved = solver.Combined(lowered) })
		if slot == first {
			if ref := lowered.ReferenceCombined(); !reflect.DeepEqual(solved.Levels, ref.Levels) || solved.Value != ref.Value {
				wk.problemf("walk: Solver.Combined differs from ReferenceCombined on the first problem")
			}
		}
		var allocation core.Allocation
		wk.log.timed("core.allocate_ns", sp, n, func() { allocation = alloc.AllocateShared(params, &problem) })
		if slot == (first+walkSlots)/2 {
			wk.users = cloneUsers(users)
		}

		// Admission against the ledger, then the admitted stream through
		// the tile store, the client's RAM and back into the ledger.
		before := len(wk.stream)
		examined := tilesIn(sess)
		wk.log.timed("tiles.admit_ns", sp, examined, func() {
			for i, s := range sess {
				for _, tile := range s.sel {
					id, err := tiles.PackVideoID(s.cell, tile, allocation.Levels[i])
					if err == nil && !s.ledger.Has(id) {
						wk.stream = append(wk.stream, id)
						s.ledger.MarkDelivered(id)
					}
				}
			}
		})
		admitted := wk.stream[before:]
		wk.log.timed("tiles.store_stream", sp, len(admitted), func() {
			for _, id := range admitted {
				p := store.Payload(id)
				packets += (len(p) + chunk - 1) / chunk
				if len(p) > len(wk.payload) && len(p) < 32<<10 {
					wk.payload = p
				}
			}
		})
		wk.log.timed("tiles.clientram_ns", sp, examined, func() {
			for i, s := range sess {
				for _, tile := range s.sel {
					id, _ := tiles.PackVideoID(s.cell, tile, allocation.Levels[i])
					if released := s.ram.Add(id); len(released) > 0 {
						s.ledger.MarkReleased(released...)
					}
				}
			}
		})

		wk.log.timed("metrics.qoe_observe_ns", sp, n, func() {
			for i, s := range sess {
				q := allocation.Levels[i]
				s.acc.Observe(q, s.covered, s.delays[q-1])
				s.acc.ObserveFrame(true)
			}
		})
		wk.log.timed("obs.slo_observe_ns", sp, n, func() {
			for i, s := range sess {
				wk.slo.ObserveSlot(s.id, s.delays[allocation.Levels[i]-1] <= 2*slotMs, float64(allocation.Levels[i]))
			}
		})
		wk.log.timed("obs.breaker_ns", sp, n, func() {
			for _, s := range sess {
				brk.Observe(s.id, wk.slo.State(s.id))
				brk.Cap(s.id)
			}
		})
		for i, s := range sess {
			s.t++
			if s.covered {
				s.coveredN++
				s.sumViewedQ += float64(allocation.Levels[i])
			}
		}
		wk.log.end(sp, n)
	}
	wk.log.end(root, (walkSlots-first)*walkSessions)

	wk.out["tiles.select_tiles"] = ratio(float64(tilesSelected), float64(selections))
	wk.out["tiles.store_hit_ratio"] = store.HitRatio()
	wk.out["transport.packets_per_slot"] = ratio(float64(packets), float64(selections))
	// What the allocator adds to its two measured parts. The exported
	// lowering allocates and the allocator's own is pooled, so this can be
	// negative: that difference is what the pooling saves.
	wk.out["core.allocate_self_ns"] = median(wk.log.nsPerOp("core.allocate_ns")) -
		median(wk.log.nsPerOp("core.lower_ns")) - median(wk.log.nsPerOp("knapsack.solve_ns"))
	return nil
}

func tilesIn(sess []*walkSession) int {
	n := 0
	for _, s := range sess {
		n += len(s.sel)
	}
	return n
}

func cloneUsers(users []core.UserInput) []core.UserInput {
	out := make([]core.UserInput, len(users))
	for i, u := range users {
		out[i] = u
		out[i].Rate = append([]float64(nil), u.Rate...)
		out[i].Delay = append([]float64(nil), u.Delay...)
	}
	return out
}

// loop records microBatches spans of the name; each is one call of batch,
// which performs ops layer operations (batch b may use b*ops.. as indices).
func (wk *walker) loop(name string, parent, ops int, batch func(b int)) {
	for b := 0; b < microBatches; b++ {
		wk.log.timed(name, parent, ops, func() { batch(b) })
	}
}

// each is loop for the common case: ops independent calls of op per span.
func (wk *walker) each(name string, parent, ops int, op func(i int)) {
	wk.loop(name, parent, ops, func(b int) {
		for i := b * ops; i < (b+1)*ops; i++ {
			op(i)
		}
	})
}

// allocsPerOp is the heap allocations one call of fn makes, averaged.
func allocsPerOp(n int, fn func()) float64 {
	fn() // grow any scratch first
	before := mallocs()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(mallocs()-before) / float64(n)
}

// micro times the layers the replay does not reach (or reaches only mixed
// with others): each in its own loop, on inputs the replay produced.
func (wk *walker) micro(seed int64) error {
	wk.log.run++
	root := wk.log.begin("walk.micro", -1)
	defer func() { wk.log.end(root, 0) }()

	wk.microTiles(root)
	wk.microSolve(root)
	if err := wk.microTransport(root); err != nil {
		return err
	}
	wk.microObs(root)
	wk.microFleet(root)
	return wk.microLoad(root, seed)
}

func (wk *walker) microTiles(root int) {
	model := tiles.NewSizeModel(0)
	ids := wk.stream
	if len(ids) > 4096 {
		ids = ids[:4096]
	}
	hot := tiles.NewStore(model, 8192, 60)
	for _, id := range ids {
		hot.Payload(id)
	}
	wk.each("tiles.store_hit_ns", root, 1024, func(i int) { hot.Payload(ids[i%len(ids)]) })

	// Misses: IDs no store has seen, at the stream's own level mix.
	cold := tiles.NewStore(model, 8192, 60)
	wk.each("tiles.store_miss_ns", root, 64, func(i int) {
		_, tile, level := ids[i%len(ids)].Unpack()
		id, _ := tiles.PackVideoID(tiles.CellID{X: int32(10000 + i), Z: 7}, tile, level)
		cold.Payload(id)
	})

	// Contended hits: every core on the one mutex-guarded LRU, timed on the
	// wall clock and divided by all the fetches made.
	workers := runtime.GOMAXPROCS(0)
	wk.loop("tiles.store_contended_ns", root, 1024*workers, func(int) {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 1024; i++ {
					hot.Payload(ids[(g*977+i)%len(ids)])
				}
			}(g)
		}
		wg.Wait()
	})

	now := time.Now()
	bucket := netem.NewTokenBucket(50, 4<<10, now)
	wk.each("netem.bucket_admit_ns", root, 1024, func(i int) {
		bucket.Admit(transport.DefaultMTU, now.Add(time.Duration(i)*200*time.Microsecond))
	})

	// The server's delay regression: degree 2 over its recent ACK samples.
	xs, ys := make([]float64, 32), make([]float64, 32)
	for i := range xs {
		xs[i] = 5 + float64(i)
		ys[i] = 2 + 0.1*xs[i] + 0.002*xs[i]*xs[i]
	}
	var fitter estimate.PolyFitter
	wk.each("estimate.polyfit_ns", root, 64, func(int) { _, _ = fitter.Fit(xs, ys, 2) })
}

func (wk *walker) microSolve(root int) {
	params := core.DefaultSystemParams()
	lowered := func(n int) *knapsack.Problem {
		users := make([]core.UserInput, n)
		for i := range users {
			users[i] = wk.users[i%len(wk.users)]
		}
		return core.LowerProblem(params, &core.SlotProblem{
			T: walkSlots / 2, Budget: denseBudgetPerSession * float64(n), Users: users,
		})
	}
	small, large := lowered(16), lowered(denseSessions)
	var solver knapsack.Solver
	wk.each("knapsack.solve_n16_ns", root, 64, func(int) { solver.Combined(small) })
	// One op is one item here: the solve is O(N log N) over the slot.
	wk.loop("knapsack.solve_n4000_ns", root, denseSessions, func(int) { solver.Combined(large) })
	wk.out["knapsack.solve_allocs"] = allocsPerOp(20, func() { solver.Combined(large) })
	var kt knapsack.CombinedTrace
	solver.CombinedTraced(large, &kt)
	picked := kt.Density
	if kt.Picked == knapsack.BranchValue {
		picked = kt.Value
	}
	wk.out["knapsack.upgrades_per_item"] = float64(picked.Upgrades) / denseSessions
}

// microTransport drives the wire layers over real loopback sockets: one UDP
// pair with a draining reader for the sender, one TCP pair for control. One
// op is one packet (one message on the control channel).
func (wk *walker) microTransport(root int) error {
	const mtu, tilesPerSlot = transport.DefaultMTU, 8
	payload, id := wk.payload, wk.stream[0]
	perTile := len(transport.Fragment(1, 0, id, payload, mtu, 0))
	slotOf := func(slot uint32) []*transport.Packet {
		var pkts []*transport.Packet
		for t := 0; t < tilesPerSlot; t++ {
			pkts = append(pkts, transport.Fragment(1, slot, id+tiles.VideoID(t)<<6, payload, mtu, 0)...)
		}
		return pkts
	}

	wk.loop("transport.fragment_ns", root, tilesPerSlot*perTile, func(b int) { slotOf(uint32(b)) })

	rx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("walk: %w", err)
	}
	tx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		rx.Close()
		return fmt.Errorf("walk: %w", err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 65536)
		for {
			if _, _, err := rx.ReadFrom(buf); err != nil {
				return
			}
		}
	}()
	sender := transport.NewSender(tx, rx.LocalAddr(), nil, mtu)
	wk.loop("transport.send_ns", root, tilesPerSlot*perTile, func(b int) {
		for t := 0; t < tilesPerSlot; t++ {
			err = firstErr(err, sender.SendTile(1, uint32(b), id, payload))
		}
	})
	sender.SetBatchSize(32) // the server's default
	wk.loop("transport.send_batched_ns", root, 32*perTile, func(b int) {
		for t := 0; t < 32; t++ {
			err = firstErr(err, sender.QueueTile(1, uint32(b), id, payload))
		}
		err = firstErr(err, sender.Flush())
	})
	tx.Close()
	rx.Close()
	<-drained
	if err != nil {
		return fmt.Errorf("walk: send: %w", err)
	}

	var wires [][]byte
	for _, f := range slotOf(0) {
		wires = append(wires, f.Encode(nil))
	}
	wk.each("transport.decode_ns", root, len(wires), func(i int) {
		_, derr := transport.Decode(wires[i%len(wires)])
		err = firstErr(err, derr)
	})
	if err != nil {
		return fmt.Errorf("walk: decode: %w", err)
	}

	// Reassembly of one slot: whole and in order, then with 2 % of its
	// packets dropped and 5 % swapped with their successor.
	now := time.Now()
	wk.loop("transport.reassemble_ns", root, tilesPerSlot*perTile, func(b int) {
		r := transport.NewReassembler()
		for _, p := range slotOf(uint32(b)) {
			r.Ingest(p, now)
		}
		done := r.Flush()
		r.FlushSlot(uint32(b))
		if len(done) != tilesPerSlot || !bytes.Equal(done[0].Payload, payload) {
			wk.problemf("walk: reassembled %d of %d tiles, or not the payload that was sent", len(done), tilesPerSlot)
		}
	})
	wk.loop("transport.reassemble_lossy_ns", root, tilesPerSlot*perTile, func(b int) {
		r := transport.NewReassembler()
		pkts := slotOf(uint32(b))
		for k := 0; k+1 < len(pkts); k++ {
			if (k*7+b)%20 == 0 {
				pkts[k], pkts[k+1] = pkts[k+1], pkts[k]
			}
		}
		for k, p := range pkts {
			if (k*13+b)%50 != 0 {
				r.Ingest(p, now)
			}
		}
		r.Flush()
		r.Incomplete(uint32(b))
		r.FlushSlot(uint32(b))
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("walk: %w", err)
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return fmt.Errorf("walk: %w", err)
	}
	a := transport.NewConn(dialed)
	defer a.Close()
	accepted, err := ln.Accept()
	if err != nil {
		return fmt.Errorf("walk: %w", err)
	}
	b := transport.NewConn(accepted)
	defer b.Close()
	wk.each("transport.control_ns", root, 256, func(i int) {
		err = firstErr(err, a.Send(transport.PoseUpdate{User: 1, Slot: uint32(i)}))
		_, rerr := b.Recv()
		err = firstErr(err, rerr)
	})
	if err != nil {
		return fmt.Errorf("walk: control: %w", err)
	}
	return nil
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

func (wk *walker) microObs(root int) {
	counter := wk.reg.Counter("bench_walk_total")
	wk.each("obs.registry_inc_ns", root, 4096, func(int) { counter.Inc() })

	// A health pass over a registry the size of a live server's (the
	// replay's SLO and breaker instruments plus a server's and a client's).
	for i := 0; i < 30; i++ {
		wk.reg.Counter(fmt.Sprintf("bench_walk_counter_%d_total", i)).Add(uint64(i))
	}
	for i := 0; i < 6; i++ {
		wk.reg.Histogram(fmt.Sprintf("bench_walk_hist_%d", i), obs.DefaultLatencyBuckets()).Observe(float64(i))
	}
	sampler := tsdb.NewSampler(tsdb.SamplerOptions{Store: tsdb.New(tsdb.Options{}), Registry: wk.reg, SLO: wk.slo})
	wk.each("tsdb.sample_ns", root, 16, func(i int) { sampler.Sample(int64(i)) })

	on := trace.New(trace.Options{})
	var off *trace.Tracer
	spanOnce := func(t *trace.Tracer, i int) {
		sp := t.Start(trace.TileTraceID(0, 1, uint32(i)), trace.StageAdmit, trace.SideServer, 1, uint32(i))
		sp.SetLevel(2)
		sp.SetTiles(4)
		sp.End()
	}
	wk.each("trace.span_ns", root, 1024, func(i int) { spanOnce(on, i) })
	wk.each("trace.span_off_ns", root, 1024, func(i int) { spanOnce(off, i) })
}

func (wk *walker) microFleet(root int) {
	states := make([]fleet.ShardState, churnShards)
	for i := range states {
		states[i] = fleet.ShardState{ID: i, Zone: i, Alive: true, Sessions: 200 + 10*i, BudgetMbps: 4000, DemandMbps: 3000 + 100*float64(i)}
	}
	router := fleet.NewRouter(fleet.LeastLoaded{}, nil)
	wk.each("fleet.place_ns", root, 1024, func(i int) {
		router.Place(i, fleet.SessionInfo{ID: uint32(i), Zone: i % churnShards}, states, obs.PlaceArrival, -1)
	})
	rb := fleet.NewRebalancer(fleet.RebalanceConfig{}, churnShards)
	accepting := []bool{true, true, false, true}
	wk.each("fleet.rebalance_ns", root, 256, func(i int) {
		for s := 0; s < churnShards; s++ {
			rb.Observe(s, 3000+float64((i+s)%7)*100)
		}
		rb.Shares(churnBudgetMbps, accepting)
	})
	// The evacuation tick as the fleet engines run it: the shard's rolling
	// page-fraction window out of the health store, then the hysteresis.
	evac := fleet.NewEvacuator(fleet.EvacConfig{Enabled: true}, churnShards)
	pageFrac := tsdb.New(tsdb.Options{}).ShardSeries("fleet_shard_page_frac", tsdb.Gauge, 0)
	for i := 0; i < churnHorizon; i++ {
		pageFrac.Observe(int64(i), float64(i%10)/20)
	}
	wk.each("fleet.evac_update_ns", root, 1024, func(i int) {
		w := pageFrac.Stats(evac.Config().WindowSlots)
		evac.Update(i%churnShards, int64(i), w.Mean(), w.Count)
	})

	// Place, then forget: the owner map stays at its footprint.
	propose := func(c *coord.Cluster, i int) {
		op := coord.Op{Kind: coord.OpPlace, Session: uint32(i / 2 % 512), Shard: i % churnShards}
		if i%2 == 1 {
			op.Kind = coord.OpForget
		}
		_ = c.Propose(op) // both clusters have a leader throughout
	}
	single := coord.New(coord.Config{Replicas: 1})
	wk.each("coord.propose_r1_ns", root, 1024, func(i int) { propose(single, i) })
	n := 0
	wk.out["coord.propose_r1_allocs"] = allocsPerOp(4096, func() { propose(single, n); n++ })
	triple := coord.New(coord.Config{Replicas: churnCoordinators, LeaseSlots: churnLeaseSlots})
	wk.each("coord.propose_r3_ns", root, 1024, func(i int) { propose(triple, i) })
	wk.each("coord.tick_ns", root, 1024, func(i int) { triple.Tick(int64(i)) })
}

func (wk *walker) microLoad(root int, seed int64) error {
	cfg := load.Config{
		Shape: load.Poisson, Seed: seed, HorizonSlots: churnHorizon,
		RatePerSec: churnArrivalsPerS, MeanHoldSec: churnHoldSec,
	}
	var w *load.Workload
	var err error
	wk.each("load.generate_us", root, 1, func(int) {
		var gerr error
		w, gerr = load.Generate(cfg)
		err = firstErr(err, gerr)
	})
	if err != nil {
		return fmt.Errorf("walk: %w", err)
	}
	// What the sim engines do when a session with a 3 s hold arrives.
	wk.each("load.session_setup_us", root, 8, func(i int) {
		spec := w.Sessions[i%len(w.Sessions)]
		spec.DepartSlot = spec.ArriveSlot + churnHoldSec*60
		w.MotionTrace(spec, 0)
		w.CapSlots(spec)
		motion.NewPredictor(0)
	})

	// Chaos per session-slot with one capacity fault in force.
	profile := &chaos.Profile{Seed: seed, Faults: []chaos.Fault{
		{Kind: chaos.FaultBandwidth, StartSlot: 0, Factor: 0.5},
	}}
	inj := chaos.NewInjector(profile, 1)
	wk.each("chaos.advance_ns", root, 1024, func(i int) {
		inj.Advance(i)
		inj.SimCapFactor()
		inj.Drop()
	})
	return nil
}

package step

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/netem"
	"repro/internal/tiles"
	"repro/internal/vrmath"
)

func testEnv() *Env {
	return &Env{Model: tiles.NewSizeModel(7), Coverage: motion.DefaultCoverage(), SlotMs: 1000.0 / 60}
}

// TestStateMatchesTracker: a Session and a core.Tracker fed the same
// covered/level sequence report bit-equal delta_n and qbar_n at every slot —
// there is one definition and both embed it.
func TestStateMatchesTracker(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	params := core.DefaultSimParams()
	tr := core.NewTracker(params, 1, 1)
	var s Session
	for slot := 0; slot < 2000; slot++ {
		if s.Delta() != tr.Delta(0) || s.MeanQ() != tr.MeanQ(0) {
			t.Fatalf("slot %d: session delta %v meanQ %v, tracker %v %v",
				slot, s.Delta(), s.MeanQ(), tr.Delta(0), tr.MeanQ(0))
		}
		q, covered := 1+rng.Intn(params.Levels), rng.Float64() < 0.8
		s.Observe(q, covered)
		tr.Record(0, q, covered, 0)
	}
	if s.T != 2000 || tr.Slot() != 2001 {
		t.Fatalf("observed %d slots, tracker at slot %d", s.T, tr.Slot())
	}
}

// fixedDelays is a delay model that ignores its inputs (a pointer, like the
// server's session, so handing it over as a DelayModel boxes nothing).
type fixedDelays []float64

func (f *fixedDelays) DelayTableInto(out, _ []float64, _, _ float64) { copy(out, *f) }

// TestInputDelayModels: a nil model is the M/M/1 table at the capacity
// shown; an injected model's output is the problem row's Delay verbatim.
func TestInputDelayModels(t *testing.T) {
	env := testEnv()
	var s Session
	var plan Plan
	plan.Select(env, vrmath.Pose{Yaw: 30})
	s.Rates = plan.Rates
	s.Observe(4, true)
	s.Observe(2, false)

	u := s.Input(env, 40, nil)
	want := make([]float64, len(s.Rates))
	netem.DelayTableMsInto(want, s.Rates, 40, env.SlotMs)
	for i := range want {
		if u.Delay[i] != want[i] {
			t.Errorf("M/M/1 delay[%d] = %v, want %v", i, u.Delay[i], want[i])
		}
	}
	if u.Cap != 40 || u.Delta != s.Delta() || u.MeanQ != s.MeanQ() || &u.Rate[0] != &s.Rates[0] {
		t.Errorf("input row %+v does not carry the session's state and ladder", u)
	}

	model := fixedDelays{9, 8, 7, 6, 5, 4}
	u = s.Input(env, 40, &model)
	for i := range model {
		if u.Delay[i] != model[i] {
			t.Errorf("injected delay[%d] = %v, want %v verbatim", i, u.Delay[i], model[i])
		}
	}
}

// TestSelectInputAllocs: after the first slot sized the scratch, the build
// allocates nothing.
func TestSelectInputAllocs(t *testing.T) {
	env := testEnv()
	var s Session
	var plan Plan
	pose := vrmath.Pose{Yaw: 10}
	plan.Select(env, pose)
	s.Rates = plan.Rates
	s.Input(env, 50, nil)
	model := &fixedDelays{1, 2, 3, 4, 5, 6}
	if n := testing.AllocsPerRun(200, func() {
		pose.Yaw += 3
		plan.Select(env, pose)
		s.Rates = plan.Rates
		s.Input(env, 50, nil)
		s.Input(env, 50, model)
	}); n != 0 {
		t.Errorf("Select+Input allocates %v per slot, want 0", n)
	}
}

// TestSettleDeadlineRule pins the miss/clamp rule: a frame misses when chaos
// dropped it or its delay EXCEEDS the deadline; a miss is charged the
// deadline and loses its coverage; +Inf never misses.
func TestSettleDeadlineRule(t *testing.T) {
	env := testEnv()
	var plan Plan
	plan.Select(env, vrmath.Pose{})
	rate := plan.Rates[2] // level 3
	link := 2 * rate      // M/M/1: r/(B-r) = 1 slot-time
	exact := netem.DelayMs(rate, link, env.SlotMs) + 1.5 + 0.25
	tests := []struct {
		name                string
		deadline            float64
		dropped             bool
		wantDelay           float64
		wantMissed, wantCov bool
	}{
		{"at the deadline displays", exact, false, exact, false, true},
		{"past the deadline misses and clamps", math.Nextafter(exact, 0), false, math.Nextafter(exact, 0), true, false},
		{"dropped misses whatever the delay", 10 * exact, true, 10 * exact, true, false},
		{"perfect knowledge never misses", math.Inf(1), false, exact, false, true},
	}
	for _, tt := range tests {
		s := Session{Rates: plan.Rates}
		acc := metrics.NewUserQoE(metrics.QoEParams{Alpha: 0.1, Beta: 0.5})
		gotRate, delay, missed := s.Settle(env, acc, 3, link, true, tt.dropped, 1.5, 0.25, tt.deadline)
		if gotRate != rate || delay != tt.wantDelay || missed != tt.wantMissed {
			t.Errorf("%s: rate %v delay %v missed %v, want %v %v %v",
				tt.name, gotRate, delay, missed, rate, tt.wantDelay, tt.wantMissed)
		}
		wantCovered, wantSum := 0, 0.0
		if tt.wantCov {
			wantCovered, wantSum = 1, 3
		}
		if s.T != 1 || s.Covered != wantCovered || s.SumViewedQ != wantSum {
			t.Errorf("%s: state %+v, want T=1 covered=%d sum=%v", tt.name, s.ViewState, wantCovered, wantSum)
		}
		if acc.Slots() != 1 || acc.AvgDelay() != tt.wantDelay || (acc.FrameRate() == 1) == tt.wantMissed {
			t.Errorf("%s: accumulator slots %d delay %v frame rate %v", tt.name, acc.Slots(), acc.AvgDelay(), acc.FrameRate())
		}
	}

	// A forced miss is the same charge with nothing delivered.
	var s Session
	acc := metrics.NewUserQoE(metrics.QoEParams{})
	s.ForcedMiss(acc, 33)
	if s.T != 1 || s.Covered != 0 || acc.AvgDelay() != 33 || acc.FrameRate() != 0 {
		t.Errorf("forced miss: state %+v delay %v frame rate %v", s.ViewState, acc.AvgDelay(), acc.FrameRate())
	}
}

// TestFollowColdStart: during cold start the plan is built for the actual
// pose (so it covers it) and the predictor still sees every pose.
func TestFollowColdStart(t *testing.T) {
	env := testEnv()
	pred := motion.NewPredictor(4)
	var cold, direct Plan
	actual := vrmath.Pose{Yaw: 120, Pitch: -20}
	if !cold.Follow(env, pred, true, actual) {
		t.Error("cold-start plan does not cover the pose it was built for")
	}
	direct.Select(env, actual)
	if len(cold.Sel) != len(direct.Sel) || cold.Cell != direct.Cell || cold.Rates[5] != direct.Rates[5] {
		t.Errorf("cold-start plan %+v differs from the plan for the actual pose %+v", cold, direct)
	}
	if got := pred.Predict(); got != actual {
		t.Errorf("predictor was not shown the actual pose: predicts %+v", got)
	}
}

// countingAlloc records which entry point Solve took.
type countingAlloc struct {
	core.Allocator
	plain, shared, traced int
}

func (c *countingAlloc) Allocate(p core.Params, sp *core.SlotProblem) core.Allocation {
	c.plain++
	return c.Allocator.Allocate(p, sp)
}

func (c *countingAlloc) AllocateShared(p core.Params, sp *core.SlotProblem) core.Allocation {
	c.shared++
	return c.Allocator.Allocate(p, sp)
}

func (c *countingAlloc) AllocateTraced(p core.Params, sp *core.SlotProblem, tr *core.SlotTrace) core.Allocation {
	c.traced++
	return c.Allocator.(core.TracingAllocator).AllocateTraced(p, sp, tr)
}

// TestSolveDispatchAndRecord: recording takes the traced entry point with
// the caller's top-K, not recording the no-clone one, an allocator with
// neither the plain one; and the record's terms sum to the allocation's
// value.
func TestSolveDispatchAndRecord(t *testing.T) {
	env := testEnv()
	params := core.DefaultSystemParams()
	sessions := make([]Session, 3)
	users := make([]core.UserInput, len(sessions))
	for i := range sessions {
		var plan Plan
		plan.Select(env, vrmath.Pose{Yaw: float64(40 * i)})
		sessions[i].Rates = plan.Rates
		sessions[i].Observe(3, i != 1)
		users[i] = sessions[i].Input(env, 30+10*float64(i), nil)
	}
	p := &core.SlotProblem{T: 2, Budget: 40, Users: users}

	c := &countingAlloc{Allocator: core.NewSolverAllocator()}
	if _, tr := Solve(c, params, p, false, 2); tr != nil || c.shared != 1 {
		t.Errorf("not recording: trace %v, calls %+v, want the shared entry point", tr, c)
	}
	a, tr := Solve(c, params, p, true, 2)
	if tr == nil || tr.TopK != 2 || c.traced != 1 {
		t.Fatalf("recording: trace %+v, calls %+v, want the traced entry point with TopK 2", tr, c)
	}
	if _, tr := Solve(core.Optimal{}, params, p, true, 2); tr != nil {
		t.Errorf("an allocator that cannot trace returned a trace")
	}

	rec := Record("x", params, 1, p, a, tr)
	if rec.Slot != 1 || rec.BudgetMbps != 40 || rec.Branch != tr.Branch || len(rec.UserValues) != 3 {
		t.Errorf("record %+v", rec)
	}
	if sum := rec.QualityTerm - rec.DelayTerm - rec.VarianceTerm; math.Abs(sum-a.Value) > 1e-9 {
		t.Errorf("terms sum to %v, allocation value %v", sum, a.Value)
	}
	if rec.Utilization != a.Rate/40 {
		t.Errorf("utilization %v, want %v", rec.Utilization, a.Rate/40)
	}
}

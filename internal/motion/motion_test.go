package motion

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/vrmath"
)

func TestGenerateDeterministic(t *testing.T) {
	scene := Scenes()[0]
	a := Generate(scene, 3, 500, 60, 42)
	b := Generate(scene, 3, 500, 60, 42)
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at slot %d", i)
		}
	}
	c := Generate(scene, 4, 500, 60, 42)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different users should produce different traces")
	}
}

func TestGenerateStaysInBounds(t *testing.T) {
	for _, scene := range Scenes() {
		tr := Generate(scene, 1, 5000, 60, 7)
		for i, p := range tr {
			if p.Pos.X < -1e-9 || p.Pos.X > scene.Width+1e-9 ||
				p.Pos.Z < -1e-9 || p.Pos.Z > scene.Depth+1e-9 {
				t.Fatalf("%s slot %d out of bounds: %+v", scene.Name, i, p.Pos)
			}
			if p.Pitch < -90 || p.Pitch > 90 {
				t.Fatalf("%s slot %d pitch out of range: %v", scene.Name, i, p.Pitch)
			}
			if p.Yaw < -180 || p.Yaw >= 180 {
				t.Fatalf("%s slot %d yaw out of range: %v", scene.Name, i, p.Yaw)
			}
		}
	}
}

func TestGenerateMotionIsSmooth(t *testing.T) {
	// Per-slot displacement must respect the walking speed budget; this is
	// what makes linear prediction viable (and the paper's grid caching
	// strategy sound).
	scene := Scenes()[0]
	tr := Generate(scene, 2, 2000, 60, 11)
	maxStep := scene.WalkSpeed * 1.3 / 60 * 1.01
	for i := 1; i < len(tr); i++ {
		if d := tr[i].Pos.Dist(tr[i-1].Pos); d > maxStep {
			t.Fatalf("slot %d moved %v m, budget %v", i, d, maxStep)
		}
	}
}

func TestGenerateDataset(t *testing.T) {
	ds := GenerateDataset(25, 100, 60, 1)
	if len(ds.Traces) != 25 {
		t.Fatalf("traces = %d, want 25", len(ds.Traces))
	}
	for u, tr := range ds.Traces {
		if len(tr) != 100 {
			t.Errorf("user %d trace length = %d", u, len(tr))
		}
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	tr := Generate(Scenes()[1], 5, 50, 60, 3)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tr) {
		t.Fatalf("round trip length %d, want %d", len(back), len(tr))
	}
	for i := range tr {
		if tr[i].Pos.Dist(back[i].Pos) > 1e-6 ||
			math.Abs(tr[i].Yaw-back[i].Yaw) > 1e-6 {
			t.Fatalf("round trip mismatch at %d: %+v vs %+v", i, tr[i], back[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty csv should error")
	}
	if _, err := ReadCSV(bytes.NewBufferString("h1,h2\n1,2\n")); err == nil {
		t.Error("wrong arity should error")
	}
	bad := "slot,x,y,z,yaw,pitch,roll\n0,a,0,0,0,0,0\n"
	if _, err := ReadCSV(bytes.NewBufferString(bad)); err == nil {
		t.Error("non-numeric field should error")
	}
}

func TestPredictorTracksLinearMotion(t *testing.T) {
	p := NewPredictor(6)
	// Constant-velocity motion along X, constant yaw drift.
	for i := 0; i < 10; i++ {
		p.Observe(vrmath.Pose{
			Pos: vrmath.Vec3{X: float64(i) * 0.01},
			Yaw: float64(i) * 0.5,
		})
	}
	got := p.Predict()
	if math.Abs(got.Pos.X-0.10) > 1e-6 {
		t.Errorf("predicted X = %v, want 0.10", got.Pos.X)
	}
	if math.Abs(got.Yaw-5.0) > 1e-6 {
		t.Errorf("predicted yaw = %v, want 5.0", got.Yaw)
	}
}

func TestPredictorHandlesYawSeam(t *testing.T) {
	p := NewPredictor(6)
	// Yaw sweeps across the +/-180 seam at 2 deg/slot: 174, 176, 178, -180,
	// -178... Prediction must continue the sweep, not jump.
	yaws := []float64{174, 176, 178, -180, -178, -176}
	for _, y := range yaws {
		p.Observe(vrmath.Pose{Yaw: y})
	}
	got := p.Predict()
	if math.Abs(vrmath.AngleDiff(got.Yaw, -174)) > 1e-6 {
		t.Errorf("predicted yaw = %v, want -174", got.Yaw)
	}
}

func TestPredictorEmpty(t *testing.T) {
	p := NewPredictor(0)
	got := p.Predict()
	if got != (vrmath.Pose{}) {
		t.Errorf("empty predictor should return zero pose, got %+v", got)
	}
}

func TestPredictorAccuracyOnGeneratedTraces(t *testing.T) {
	// End-to-end: on smooth synthetic motion, the delivered margin covers
	// the actual FoV in the overwhelming majority of slots — delta_n should
	// land in the high-accuracy regime the paper relies on.
	cov := DefaultCoverage()
	for _, scene := range Scenes() {
		tr := Generate(scene, 9, 3000, 60, 17)
		p := NewPredictor(DefaultWindow)
		covered, total := 0, 0
		for i, pose := range tr {
			if i > DefaultWindow {
				pred := p.Predict()
				if cov.Covered(pred, pose) {
					covered++
				}
				total++
			}
			p.Observe(pose)
		}
		rate := float64(covered) / float64(total)
		if rate < 0.85 {
			t.Errorf("%s: coverage rate %v, want >= 0.85", scene.Name, rate)
		}
		if rate == 1 {
			t.Logf("%s: coverage is perfect; imperfect prediction is expected", scene.Name)
		}
	}
}

func TestCoveredPositionTolerance(t *testing.T) {
	cov := DefaultCoverage()
	a := vrmath.Pose{Pos: vrmath.Vec3{X: 1, Z: 1}}
	b := a
	if !cov.Covered(a, b) {
		t.Errorf("identical poses should be covered")
	}
	b.Pos.X += 0.2 // 4 cells away
	if cov.Covered(a, b) {
		t.Errorf("large position error should break coverage")
	}
}

func TestCoveredOrientationMargin(t *testing.T) {
	cov := DefaultCoverage()
	pred := vrmath.Pose{Yaw: 0}
	actual := vrmath.Pose{Yaw: 10} // within 15 degree margin
	if !cov.Covered(pred, actual) {
		t.Errorf("10 degree yaw error should be inside the 15 degree margin")
	}
	actual.Yaw = 40 // far outside margin
	if cov.Covered(pred, actual) {
		t.Errorf("40 degree yaw error should not be covered")
	}
}

// Once the windows are full, the per-slot predictor calls must not allocate:
// they run for every session of every slot in all four engines.
func TestPredictorSteadyStateDoesNotAllocate(t *testing.T) {
	for _, window := range []int{DefaultWindow, DefaultWindow + 4} {
		p := NewPredictor(window)
		tr := Generate(Scenes()[0], 1, window+200, 60, 3)
		for _, pose := range tr[:window] {
			p.Observe(pose)
		}
		i := window
		if allocs := testing.AllocsPerRun(100, func() { poseSink = p.Predict() }); allocs != 0 {
			t.Errorf("window %d: Predict allocates %v times per call, want 0", window, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { p.Observe(tr[i]); i++ }); allocs != 0 {
			t.Errorf("window %d: Observe allocates %v times per call, want 0", window, allocs)
		}
	}
}

var (
	poseSink      vrmath.Pose
	predictorSink *Predictor
)

// A default-window predictor is one allocation: the windows live inline.
func TestNewPredictorIsOneAllocation(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { predictorSink = NewPredictor(0) }); allocs != 1 {
		t.Errorf("NewPredictor(0) allocates %v times, want 1", allocs)
	}
}

// A predictor reset for a new user predicts what a new one does, slot for
// slot, whatever it held before — at the default window without touching
// the heap, and across a change of window.
func TestPredictorResetMatchesNew(t *testing.T) {
	old := Generate(Scenes()[1], 4, 150, 60, 9)
	next := Generate(Scenes()[0], 2, 150, 60, 5)
	for _, window := range []int{DefaultWindow, 3, DefaultWindow + 4} {
		p := NewPredictor(DefaultWindow + 4)
		for _, pose := range old {
			p.Observe(pose)
		}
		p.Reset(window)
		fresh := NewPredictor(window)
		for i, pose := range next {
			if got, want := p.Predict(), fresh.Predict(); got != want {
				t.Fatalf("window %d, slot %d: reset predictor says %+v, new one %+v", window, i, got, want)
			}
			p.Observe(pose)
			fresh.Observe(pose)
		}
	}
	p := NewPredictor(0)
	if allocs := testing.AllocsPerRun(100, func() { p.Reset(0) }); allocs != 0 {
		t.Errorf("Reset(0) allocates %v times, want 0", allocs)
	}
}

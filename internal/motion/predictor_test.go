package motion

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vrmath"
)

// fitLinear is the ordinary-least-squares line through (xs[i], ys[i]), the
// sums accumulated in index order: the per-axis regression of Section IV
// written the plain way, the reference the predictor's fused kernel must
// match to the bit. It returns intercept and slope.
func fitLinear(xs, ys []float64) (intercept, slope float64, err error) {
	n := float64(len(xs))
	if len(xs) < 2 {
		return 0, 0, errors.New("fewer than two samples")
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	det := n*sxx - sx*sx
	if math.Abs(det) < 1e-12 {
		return 0, 0, errors.New("singular")
	}
	slope = (n*sxy - sx*sy) / det
	intercept = (sy - slope*sx) / n
	return intercept, slope, nil
}

// predictNextReference extrapolates one axis's window (oldest first) one
// step ahead: build the abscissae 0..n-1, fit, evaluate at n; the last
// sample with fewer than two, 0 with none.
func predictNextReference(samples []float64) float64 {
	n := len(samples)
	switch n {
	case 0:
		return 0
	case 1:
		return samples[0]
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	intercept, slope, err := fitLinear(xs, samples)
	if err != nil {
		return samples[n-1]
	}
	return intercept + slope*float64(n)
}

// referencePredictor keeps each axis's window as a plain slice, oldest
// first, of the values the predictor regresses on: the normalized pose, yaw
// unwrapped into a cumulative angle.
type referencePredictor struct {
	window  int
	axes    [numAxes][]float64
	lastYaw float64
}

func (r *referencePredictor) observe(pose vrmath.Pose) {
	pose = pose.Normalize()
	cum := pose.Yaw
	if yaws := r.axes[axisYaw]; len(yaws) > 0 {
		cum = yaws[len(yaws)-1] + vrmath.AngleDiff(pose.Yaw, r.lastYaw)
	}
	r.lastYaw = pose.Yaw
	for axis, v := range [numAxes]float64{pose.Pos.X, pose.Pos.Y, pose.Pos.Z, cum, pose.Pitch, pose.Roll} {
		if r.axes[axis] = append(r.axes[axis], v); len(r.axes[axis]) > r.window {
			r.axes[axis] = r.axes[axis][1:]
		}
	}
}

func (r *referencePredictor) predict() vrmath.Pose {
	var est [numAxes]float64
	for axis := range est {
		est[axis] = predictNextReference(r.axes[axis])
	}
	return vrmath.Pose{
		Pos:   vrmath.Vec3{X: est[axisX], Y: est[axisY], Z: est[axisZ]},
		Yaw:   vrmath.NormalizeAngle(est[axisYaw]),
		Pitch: vrmath.ClampPitch(est[axisPitch]),
		Roll:  vrmath.NormalizeAngle(est[axisRoll]),
	}
}

func samePoseBits(a, b vrmath.Pose) bool {
	for _, pair := range [][2]float64{{a.Pos.X, b.Pos.X}, {a.Pos.Y, b.Pos.Y}, {a.Pos.Z, b.Pos.Z},
		{a.Yaw, b.Yaw}, {a.Pitch, b.Pitch}, {a.Roll, b.Roll}} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			return false
		}
	}
	return true
}

// The fused kernel must equal the per-axis FitLinear reference bit for bit
// on every axis, at every fill level and through eviction, on random, tiny,
// constant and zero series and on a yaw sweep across the +/-180 seam.
func TestPredictorMatchesFitLinearBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seam := 0.0
	series := map[string]func() float64{
		"random":   func() float64 { return rng.NormFloat64() * 90 },
		"small":    func() float64 { return rng.Float64() * 1e-9 },
		"constant": func() float64 { return 3.5 },
		"zero":     func() float64 { return 0 },
		"seam": func() float64 {
			seam += 7.3 + rng.Float64()
			return 150 + seam
		},
	}
	for name, next := range series {
		for _, window := range []int{2, 3, 8, 13} {
			p := NewPredictor(window)
			ref := &referencePredictor{window: window}
			for n := 0; n <= 3*window+3; n++ {
				if got, want := p.Predict(), ref.predict(); !samePoseBits(got, want) {
					t.Fatalf("%s window %d after %d observations: Predict %+v, reference %+v", name, window, n, got, want)
				}
				pose := vrmath.Pose{
					Pos:   vrmath.Vec3{X: next(), Y: next(), Z: next()},
					Yaw:   next(),
					Pitch: next(),
					Roll:  next(),
				}
				p.Observe(pose)
				ref.observe(pose)
			}
		}
	}
}

// A linear series continues its line; once the window is full the oldest
// observation drops out; a single observation is its own prediction.
func TestPredictorWindowPredict(t *testing.T) {
	p := NewPredictor(5)
	p.Observe(vrmath.Pose{Pos: vrmath.Vec3{X: 7}})
	if got := p.Predict().Pos.X; got != 7 {
		t.Errorf("single-observation predictor says X %v, want 7", got)
	}
	for _, x := range []float64{1, 2, 3, 4, 5} {
		p.Observe(vrmath.Pose{Pos: vrmath.Vec3{X: x}})
	}
	if got := p.Predict().Pos.X; math.Abs(got-6) > 1e-9 {
		t.Errorf("Predict X = %v, want 6", got)
	}
	// After 6 the window holds 2..6 and predicts 7.
	p.Observe(vrmath.Pose{Pos: vrmath.Vec3{X: 6}})
	if p.n != 5 {
		t.Fatalf("window holds %d observations, want 5", p.n)
	}
	if got := p.Predict().Pos.X; math.Abs(got-7) > 1e-9 {
		t.Errorf("Predict X after eviction = %v, want 7", got)
	}
}

func TestPredictorConstantSeries(t *testing.T) {
	p := NewPredictor(4)
	for i := 0; i < 10; i++ {
		p.Observe(vrmath.Pose{Pos: vrmath.Vec3{Y: 3.5}, Pitch: 3.5})
	}
	if got := p.Predict(); math.Abs(got.Pos.Y-3.5) > 1e-9 || math.Abs(got.Pitch-3.5) > 1e-9 {
		t.Errorf("constant series predicts Y %v pitch %v, want 3.5", got.Pos.Y, got.Pitch)
	}
}

// A window below two clamps to two.
func TestPredictorMinWindow(t *testing.T) {
	p := NewPredictor(1)
	for _, x := range []float64{1, 2, 3} {
		p.Observe(vrmath.Pose{Pos: vrmath.Vec3{X: x}})
	}
	if len(p.rows) != 2 || p.n != 2 {
		t.Errorf("window should clamp to 2: %d rows, %d held", len(p.rows), p.n)
	}
	if got := p.Predict().Pos.X; math.Abs(got-4) > 1e-9 {
		t.Errorf("Predict X = %v, want 4 from the last two observations", got)
	}
}

// A full window that predicts and then observes its own prediction, as a
// closed loop does, never touches the heap: a quadratic series at window 8.
func TestPredictorPredictObserveDoesNotAllocate(t *testing.T) {
	p := NewPredictor(8)
	for i := 0; i < 8; i++ {
		v := float64(i * i)
		p.Observe(vrmath.Pose{Pos: vrmath.Vec3{X: v, Y: v, Z: v}, Yaw: v, Pitch: v, Roll: v})
	}
	if allocs := testing.AllocsPerRun(100, func() { poseSink = p.Predict(); p.Observe(poseSink) }); allocs != 0 {
		t.Errorf("Predict+Observe allocate %v times per call, want 0", allocs)
	}
}

// BenchmarkPredictorStep is one slot of a session's predictor at the
// engines' window: observe the pose the user took, predict the next.
func BenchmarkPredictorStep(b *testing.B) {
	tr := Generate(Scenes()[0], 1, 1024, 60, 3)
	p := NewPredictor(DefaultWindow)
	for _, pose := range tr[:DefaultWindow] {
		p.Observe(pose)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(tr[i&1023])
		poseSink = p.Predict()
	}
}

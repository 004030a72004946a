package motion

import (
	"repro/internal/estimate"
	"repro/internal/vrmath"
)

// Predictor forecasts the next slot's 6-DoF pose with an independent linear
// regression per axis, "which follows the methodology in [Firefly]"
// (Section V). Yaw is unwrapped into a cumulative angle before regression so
// that crossing the +/-180 seam does not break the fit. A Predictor's windows
// point into its own storage: use it through the pointer NewPredictor
// returns, or Reset one that lives where it will stay, and do not copy it.
type Predictor struct {
	axes [numAxes]estimate.SlidingWindow

	lastYaw   float64
	cumYaw    float64
	havePrior bool

	// store backs the six windows up to DefaultWindow, so the engines'
	// per-session predictor is a single allocation.
	store [numAxes * DefaultWindow]float64
}

// The regression axes; yaw is the unwrapped cumulative angle.
const (
	axisX = iota
	axisY
	axisZ
	axisYaw
	axisPitch
	axisRoll
	numAxes
)

// DefaultWindow is the number of recent slots the regression looks at.
const DefaultWindow = 8

// NewPredictor returns a predictor with the given regression window
// (minimum 2; DefaultWindow if <= 0).
func NewPredictor(window int) *Predictor {
	p := &Predictor{}
	p.Reset(window)
	return p
}

// Reset empties the predictor in place and sets its regression window
// (minimum 2; DefaultWindow if <= 0): afterwards it predicts exactly what
// NewPredictor(window) would. A session reused for a new user resets its
// predictor instead of allocating one; up to DefaultWindow this touches no
// heap.
func (p *Predictor) Reset(window int) {
	if window <= 0 {
		window = DefaultWindow
	}
	if window < 2 {
		window = 2
	}
	p.lastYaw, p.cumYaw, p.havePrior = 0, 0, false
	buf := p.store[:]
	if window > DefaultWindow {
		buf = make([]float64, numAxes*window)
	}
	for i := range p.axes {
		p.axes[i] = estimate.WindowOver(buf[i*window : (i+1)*window])
	}
}

// Observe feeds the pose of the current slot.
func (p *Predictor) Observe(pose vrmath.Pose) {
	pose = pose.Normalize()
	if !p.havePrior {
		p.cumYaw = pose.Yaw
		p.havePrior = true
	} else {
		p.cumYaw += vrmath.AngleDiff(pose.Yaw, p.lastYaw)
	}
	p.lastYaw = pose.Yaw

	p.axes[axisX].Push(pose.Pos.X)
	p.axes[axisY].Push(pose.Pos.Y)
	p.axes[axisZ].Push(pose.Pos.Z)
	p.axes[axisYaw].Push(p.cumYaw)
	p.axes[axisPitch].Push(pose.Pitch)
	p.axes[axisRoll].Push(pose.Roll)
}

// Predict extrapolates the next slot's pose. Before any observation it
// returns the zero pose.
func (p *Predictor) Predict() vrmath.Pose {
	return vrmath.Pose{
		Pos: vrmath.Vec3{
			X: p.axes[axisX].PredictNext(),
			Y: p.axes[axisY].PredictNext(),
			Z: p.axes[axisZ].PredictNext(),
		},
		Yaw:   vrmath.NormalizeAngle(p.axes[axisYaw].PredictNext()),
		Pitch: vrmath.ClampPitch(p.axes[axisPitch].PredictNext()),
		Roll:  vrmath.NormalizeAngle(p.axes[axisRoll].PredictNext()),
	}
}

// CoverageConfig parametrizes the FoV-coverage check behind 1_n(t).
type CoverageConfig struct {
	FoV vrmath.FoV
	// MarginDeg is the extra margin delivered around the predicted FoV
	// ("we deliver a portion that covers the FoV with some fixed margin").
	MarginDeg float64
	// PosToleranceM is the maximum position error (metres) for the
	// delivered cell content to still match the user's cell. The paper's
	// margin only helps orientation (footnote 1); position errors beyond
	// the grid granularity miss.
	PosToleranceM float64
}

// DefaultCoverage matches the system defaults: the default FoV, a 15 degree
// margin, and one grid cell of position tolerance.
func DefaultCoverage() CoverageConfig {
	return CoverageConfig{
		FoV:           vrmath.DefaultFoV,
		MarginDeg:     15,
		PosToleranceM: 0.05,
	}
}

// Covered evaluates the indicator 1_n(t): does the portion delivered for
// the predicted pose (FoV plus margin) cover the actual FoV, and is the
// predicted position close enough for the delivered cell content to match?
func (c CoverageConfig) Covered(predicted, actual vrmath.Pose) bool {
	if predicted.Pos.Dist(actual.Pos) > c.PosToleranceM {
		return false
	}
	delivered := vrmath.Rect(predicted, c.FoV.Expand(c.MarginDeg))
	needed := vrmath.Rect(actual, c.FoV)
	return delivered.Covers(needed)
}

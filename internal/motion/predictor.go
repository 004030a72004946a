package motion

import "repro/internal/vrmath"

// Predictor forecasts the next slot's 6-DoF pose with an independent linear
// regression per axis, "which follows the methodology in [Firefly]"
// (Section V). Yaw is unwrapped into a cumulative angle before regression so
// that crossing the +/-180 seam does not break the fit. A Predictor's window
// points into its own storage: use it through the pointer NewPredictor
// returns, or Reset one that lives where it will stay, and do not copy it.
//
// The window is one ring of rows, the six axes of one observed pose per
// row, so an observation writes one row and moves nothing, and a prediction
// fits all six axes in one pass over the rows.
type Predictor struct {
	rows []poseRow // the ring, len(rows) == window
	next int       // the row the next observation writes
	n    int       // rows held, up to len(rows)

	lastYaw   float64
	cumYaw    float64
	havePrior bool

	// store backs the ring up to DefaultWindow, so the engines' per-session
	// predictor is a single allocation.
	store [DefaultWindow]poseRow
}

// poseRow is one observation of the regression axes.
type poseRow [numAxes]float64

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
	p.next, p.n = 0, 0
	if window <= DefaultWindow {
		p.rows = p.store[:window]
	} else {
		p.rows = make([]poseRow, window)
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

	p.rows[p.next] = poseRow{pose.Pos.X, pose.Pos.Y, pose.Pos.Z, p.cumYaw, pose.Pitch, pose.Roll}
	if p.next++; p.next == len(p.rows) {
		p.next = 0
	}
	if p.n < len(p.rows) {
		p.n++
	}
}

// Predict extrapolates the next slot's pose. Before any observation it
// returns the zero pose.
//
// Each axis is the ordinary-least-squares line over the abscissae 0..n-1,
// oldest observation first, evaluated at n; with one observation it is that
// observation. Σy and Σxy are accumulated per axis in the order of the
// tests' FitLinear reference, twelve independent chains in one pass over
// the ring, and Σx = n(n-1)/2 and Σx² = (n-1)n(2n-1)/6 are small integers,
// exact in float64 whether summed or taken in closed form, so every axis is
// bit for bit the reference fit — without allocating. det = n²(n²-1)/12 >= 1,
// so the fit cannot be singular.
func (p *Predictor) Predict() vrmath.Pose {
	var est poseRow
	switch n := p.n; n {
	case 0:
	case 1:
		est = p.rows[0]
	default:
		var sy0, sy1, sy2, sy3, sy4, sy5 float64
		var sxy0, sxy1, sxy2, sxy3, sxy4, sxy5 float64
		i := p.next - n
		if i < 0 {
			i += len(p.rows)
		}
		for k := 0; k < n; k++ {
			r := &p.rows[i]
			x := float64(k)
			sy0 += r[0]
			sxy0 += x * r[0]
			sy1 += r[1]
			sxy1 += x * r[1]
			sy2 += r[2]
			sxy2 += x * r[2]
			sy3 += r[3]
			sxy3 += x * r[3]
			sy4 += r[4]
			sxy4 += x * r[4]
			sy5 += r[5]
			sxy5 += x * r[5]
			if i++; i == len(p.rows) {
				i = 0
			}
		}
		nf := float64(n)
		sx := nf * (nf - 1) / 2
		sxx := (nf - 1) * nf * (2*nf - 1) / 6
		det := nf*sxx - sx*sx
		fit := func(sy, sxy float64) float64 {
			slope := (nf*sxy - sx*sy) / det
			intercept := (sy - slope*sx) / nf
			return intercept + slope*nf
		}
		est = poseRow{fit(sy0, sxy0), fit(sy1, sxy1), fit(sy2, sxy2), fit(sy3, sxy3), fit(sy4, sxy4), fit(sy5, sxy5)}
	}
	return vrmath.Pose{
		Pos:   vrmath.Vec3{X: est[axisX], Y: est[axisY], Z: est[axisZ]},
		Yaw:   vrmath.NormalizeAngle(est[axisYaw]),
		Pitch: vrmath.ClampPitch(est[axisPitch]),
		Roll:  vrmath.NormalizeAngle(est[axisRoll]),
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

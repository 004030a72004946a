package motion

import (
	"testing"

	"repro/internal/vrmath"
)

func TestStaticPredictsLastPose(t *testing.T) {
	p := NewStatic()
	if got := p.Predict(); got != (vrmath.Pose{}) {
		t.Errorf("unseen static predicts %+v", got)
	}
	pose := vrmath.Pose{Pos: vrmath.Vec3{X: 3}, Yaw: 50}
	p.Observe(pose)
	if got := p.Predict(); got != pose {
		t.Errorf("static predicts %+v, want %+v", got, pose)
	}
}

func TestDeadReckoningExtrapolatesVelocity(t *testing.T) {
	p := NewDeadReckoning()
	p.Observe(vrmath.Pose{Pos: vrmath.Vec3{X: 1}, Yaw: 10})
	p.Observe(vrmath.Pose{Pos: vrmath.Vec3{X: 2}, Yaw: 14})
	got := p.Predict()
	if got.Pos.X != 3 {
		t.Errorf("X = %v, want 3", got.Pos.X)
	}
	if got.Yaw != 18 {
		t.Errorf("Yaw = %v, want 18", got.Yaw)
	}
}

func TestDeadReckoningSingleObservation(t *testing.T) {
	p := NewDeadReckoning()
	pose := vrmath.Pose{Yaw: -20}
	p.Observe(pose)
	if got := p.Predict(); got != pose {
		t.Errorf("single-observation prediction = %+v, want %+v", got, pose)
	}
}

func TestDeadReckoningAcrossSeam(t *testing.T) {
	p := NewDeadReckoning()
	p.Observe(vrmath.Pose{Yaw: 176})
	p.Observe(vrmath.Pose{Yaw: 179})
	got := p.Predict()
	if diff := vrmath.AngleDiff(got.Yaw, -178); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Yaw = %v, want -178", got.Yaw)
	}
}

// TestPredictorAblation quantifies the paper's design choice. With the
// default 15-degree margin and one-cell tolerance, per-slot motion at
// 60 FPS is tiny and every predictor saturates; the regression pays off
// when coverage is tight (small margin, sub-cell position tolerance),
// where extrapolating the walk beats assuming the user stands still.
func TestPredictorAblation(t *testing.T) {
	scene := Scenes()[1] // the fast scene stresses prediction most
	trace := Generate(scene, 5, 4000, 60, 23)

	// Default coverage: all predictors near-saturate.
	cov := DefaultCoverage()
	linear := EvaluatePredictor(NewPredictor(DefaultWindow), trace, cov, DefaultWindow+1)
	if linear < 0.9 {
		t.Errorf("linear coverage %v too low under default margins", linear)
	}

	// Tight coverage: 2-degree margin, 1.5 cm position tolerance.
	tight := CoverageConfig{FoV: cov.FoV, MarginDeg: 2, PosToleranceM: 0.015}
	linearT := EvaluatePredictor(NewPredictor(DefaultWindow), trace, tight, DefaultWindow+1)
	deadT := EvaluatePredictor(NewDeadReckoning(), trace, tight, DefaultWindow+1)
	staticT := EvaluatePredictor(NewStatic(), trace, tight, DefaultWindow+1)

	if linearT <= staticT {
		t.Errorf("tight coverage: linear %v should beat static %v", linearT, staticT)
	}
	if linearT < 0.5 {
		t.Errorf("tight coverage: linear %v collapsed", linearT)
	}
	t.Logf("tight coverage: linear=%.4f dead=%.4f static=%.4f", linearT, deadT, staticT)
}

func TestEvaluatePredictorEmpty(t *testing.T) {
	if got := EvaluatePredictor(NewStatic(), nil, DefaultCoverage(), 0); got != 0 {
		t.Errorf("empty trace coverage = %v", got)
	}
}

// PosePredictor forecasts the next slot's pose from observed history. The
// paper uses per-axis linear regression (Predictor); Static and
// DeadReckoning are ablation baselines that quantify how much the
// regression buys in prediction-success probability delta_n.
type PosePredictor interface {
	// Observe feeds the pose of the current slot.
	Observe(vrmath.Pose)
	// Predict extrapolates the next slot's pose.
	Predict() vrmath.Pose
}

var _ PosePredictor = (*Predictor)(nil)

// Static predicts that the user does not move: the next pose equals the
// last observed one. It is the weakest baseline — pure reliance on the FoV
// margin.
type Static struct {
	last vrmath.Pose
	seen bool
}

// NewStatic returns a static predictor.
func NewStatic() *Static { return &Static{} }

// Observe implements PosePredictor.
func (s *Static) Observe(p vrmath.Pose) {
	s.last = p.Normalize()
	s.seen = true
}

// Predict implements PosePredictor.
func (s *Static) Predict() vrmath.Pose { return s.last }

var _ PosePredictor = (*Static)(nil)

// DeadReckoning extrapolates with the instantaneous velocity between the
// last two observed poses — a one-sample version of the linear regression.
type DeadReckoning struct {
	last, prev vrmath.Pose
	count      int
}

// NewDeadReckoning returns a dead-reckoning predictor.
func NewDeadReckoning() *DeadReckoning { return &DeadReckoning{} }

// Observe implements PosePredictor.
func (d *DeadReckoning) Observe(p vrmath.Pose) {
	d.prev = d.last
	d.last = p.Normalize()
	d.count++
}

// Predict implements PosePredictor.
func (d *DeadReckoning) Predict() vrmath.Pose {
	if d.count < 2 {
		return d.last
	}
	return vrmath.Pose{
		Pos: vrmath.Vec3{
			X: 2*d.last.Pos.X - d.prev.Pos.X,
			Y: 2*d.last.Pos.Y - d.prev.Pos.Y,
			Z: 2*d.last.Pos.Z - d.prev.Pos.Z,
		},
		Yaw:   vrmath.NormalizeAngle(d.last.Yaw + vrmath.AngleDiff(d.last.Yaw, d.prev.Yaw)),
		Pitch: vrmath.ClampPitch(2*d.last.Pitch - d.prev.Pitch),
		Roll:  vrmath.NormalizeAngle(d.last.Roll + vrmath.AngleDiff(d.last.Roll, d.prev.Roll)),
	}
}

var _ PosePredictor = (*DeadReckoning)(nil)

// EvaluatePredictor replays a trace through a predictor and returns the
// empirical coverage rate delta (the fraction of slots where the delivered
// margin-expanded FoV would cover the actual one) after a warmup.
func EvaluatePredictor(p PosePredictor, trace Trace, cov CoverageConfig, warmup int) float64 {
	if warmup < 1 {
		warmup = 1
	}
	covered, total := 0, 0
	for i, pose := range trace {
		if i >= warmup {
			if cov.Covered(p.Predict(), pose) {
				covered++
			}
			total++
		}
		p.Observe(pose)
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

package vrmath

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVec3Arithmetic(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, -5, 6}

	if got := v.Add(w); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %v, want {5 -3 9}", got)
	}
	if got := v.Sub(w); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %v, want {-3 7 -3}", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v, want {2 4 6}", got)
	}
	if got := v.dot(w); got != 1*4+2*(-5)+3*6 {
		t.Errorf("Dot = %v, want 12", got)
	}
}

func TestVec3Norm(t *testing.T) {
	if got := (Vec3{3, 4, 0}).Norm(); !almostEqual(got, 5) {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := (Vec3{1, 1, 1}).Dist(Vec3{1, 1, 1}); !almostEqual(got, 0) {
		t.Errorf("Dist(self) = %v, want 0", got)
	}
}

func TestVec3Lerp(t *testing.T) {
	a := Vec3{0, 0, 0}
	b := Vec3{10, -10, 4}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v, want %v", got, a)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v, want %v", got, b)
	}
	if got := a.Lerp(b, 0.5); got != (Vec3{5, -5, 2}) {
		t.Errorf("Lerp(0.5) = %v, want {5 -5 2}", got)
	}
}

func TestVec3DistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{ax, ay, az}
		b := Vec3{bx, by, bz}
		d1, d2 := a.Dist(b), b.Dist(a)
		if math.IsNaN(d1) || math.IsInf(d1, 0) {
			return true // degenerate inputs from quick
		}
		return almostEqual(d1, d2) && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec3TriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz int16) bool {
		a := Vec3{float64(ax), float64(ay), float64(az)}
		b := Vec3{float64(bx), float64(by), float64(bz)}
		c := Vec3{float64(cx), float64(cy), float64(cz)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Lerp linearly interpolates between v (t=0) and w (t=1).
func (v Vec3) Lerp(w Vec3, t float64) Vec3 {
	return Vec3{
		X: v.X + (w.X-v.X)*t,
		Y: v.Y + (w.Y-v.Y)*t,
		Z: v.Z + (w.Z-v.Z)*t,
	}
}

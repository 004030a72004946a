package vrmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalizeAngle(t *testing.T) {
	tests := []struct {
		give float64
		want float64
	}{
		{0, 0},
		{180, -180},
		{-180, -180},
		{190, -170},
		{-190, 170},
		{360, 0},
		{720, 0},
		{-360, 0},
		{539, 179},
		{541, -179},
	}
	for _, tt := range tests {
		if got := NormalizeAngle(tt.give); !almostEqual(got, tt.want) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestNormalizeAngleRangeProperty(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e12 {
			return true
		}
		got := NormalizeAngle(a)
		return got >= -180 && got < 180
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleDiff(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{10, 350, 20},
		{350, 10, -20},
		{-170, 170, 20},
		{90, 90, 0},
	}
	for _, tt := range tests {
		if got := AngleDiff(tt.a, tt.b); !almostEqual(got, tt.want) {
			t.Errorf("AngleDiff(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestPoseNormalize(t *testing.T) {
	p := Pose{Yaw: 400, Pitch: 120, Roll: -500}.Normalize()
	if !almostEqual(p.Yaw, 40) {
		t.Errorf("Yaw = %v, want 40", p.Yaw)
	}
	if !almostEqual(p.Pitch, 90) {
		t.Errorf("Pitch = %v, want 90", p.Pitch)
	}
	if !almostEqual(p.Roll, -140) {
		t.Errorf("Roll = %v, want -140", p.Roll)
	}
}

func TestFoVExpand(t *testing.T) {
	f := FoV{HDeg: 120, VDeg: 60}.Expand(15)
	if f.HDeg != 150 || f.VDeg != 90 {
		t.Errorf("Expand(15) = %+v, want {150 90}", f)
	}
	f = FoV{HDeg: 350, VDeg: 170}.Expand(30)
	if f.HDeg != 360 || f.VDeg != 180 {
		t.Errorf("Expand saturation = %+v, want {360 180}", f)
	}
}

func TestRectWrapping(t *testing.T) {
	// View straight at the +/-180 seam: the yaw interval must wrap.
	r := Rect(Pose{Yaw: 175}, FoV{HDeg: 40, VDeg: 60})
	if !(r.YawLo > r.YawHi) {
		t.Fatalf("expected wrapped rect, got %+v", r)
	}
	if !r.containsYaw(179) || !r.containsYaw(-179) {
		t.Errorf("wrapped rect should contain both sides of the seam: %+v", r)
	}
	if r.containsYaw(0) {
		t.Errorf("wrapped rect should not contain yaw 0: %+v", r)
	}
}

func TestRectContainsCenterProperty(t *testing.T) {
	f := func(yaw16, pitch16 int16) bool {
		yaw := float64(yaw16) / 100
		pitch := math.Mod(float64(pitch16)/400, 80)
		p := Pose{Yaw: yaw, Pitch: pitch}.Normalize()
		r := Rect(p, FoV{HDeg: 100, VDeg: 60})
		return r.containsYaw(p.Yaw) && p.Pitch >= r.PitchLo-1e-9 && p.Pitch <= r.PitchHi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCovers(t *testing.T) {
	outer := Rect(Pose{Yaw: 0, Pitch: 0}, FoV{HDeg: 150, VDeg: 90})
	inner := Rect(Pose{Yaw: 10, Pitch: 5}, FoV{HDeg: 120, VDeg: 60})
	if !outer.Covers(inner) {
		t.Errorf("outer %+v should cover inner %+v", outer, inner)
	}

	far := Rect(Pose{Yaw: 90, Pitch: 0}, FoV{HDeg: 120, VDeg: 60})
	if outer.Covers(far) {
		t.Errorf("outer %+v should not cover far %+v", outer, far)
	}
}

func TestCoversAcrossSeam(t *testing.T) {
	outer := Rect(Pose{Yaw: 178, Pitch: 0}, FoV{HDeg: 160, VDeg: 100})
	inner := Rect(Pose{Yaw: -178, Pitch: 3}, FoV{HDeg: 120, VDeg: 60})
	if !outer.Covers(inner) {
		t.Errorf("outer %+v should cover inner %+v across the seam", outer, inner)
	}
}

func TestCoversFullCircle(t *testing.T) {
	outer := Rect(Pose{}, FoV{HDeg: 360, VDeg: 180})
	inner := Rect(Pose{Yaw: 123, Pitch: -31}, FoV{HDeg: 120, VDeg: 60})
	if !outer.Covers(inner) {
		t.Errorf("full panorama should cover any view")
	}
}

// A margin-expanded rect around the same pose must always cover the
// unexpanded rect; this is the geometric core of the paper's FoV margin.
func TestExpandCoversProperty(t *testing.T) {
	f := func(yaw16, pitch16 int16, margin8 uint8) bool {
		p := Pose{
			Yaw:   float64(yaw16) / 100,
			Pitch: math.Mod(float64(pitch16)/500, 60),
		}.Normalize()
		fov := FoV{HDeg: 110, VDeg: 60}
		margin := float64(margin8%45) + 1
		outer := Rect(p, fov.Expand(margin))
		inner := Rect(p, fov)
		return outer.Covers(inner)
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestOverlapSpans(t *testing.T) {
	r := Rect(Pose{Yaw: 170}, FoV{HDeg: 60, VDeg: 60}) // wraps: [140, -160]
	if !r.OverlapsYawSpan(-180, -170) {
		t.Errorf("should overlap [-180,-170]")
	}
	if !r.OverlapsYawSpan(150, 180) {
		t.Errorf("should overlap [150,180]")
	}
	if r.OverlapsYawSpan(-90, 90) {
		t.Errorf("should not overlap [-90,90]")
	}
	if !r.OverlapsPitchSpan(-90, 0) {
		t.Errorf("should overlap pitch [-90,0]")
	}
}

// modWrap is the math.Mod form NormalizeAngle used to be: the oracle that
// the in-range shortcut and wrapAngle's one-turn branch must match bit for
// bit.
func modWrap(a float64) float64 {
	a = math.Mod(a+180, 360)
	if a < 0 {
		a += 360
	}
	return a - 180
}

func TestNormalizeAngleMatchesModBitForBit(t *testing.T) {
	angles := []float64{
		-180, 180, 0, math.Copysign(0, -1), 1e-17, -1e-17,
		math.Nextafter(180, 0), math.Nextafter(-180, 0), math.Nextafter(-180, -360),
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
	}
	// The one-turn branch's edges: a+180 just either side of 0, 360 and
	// 720, and of -360 where the Mod form takes over again.
	for _, s := range []float64{0, 360, 720, -360} {
		a := s - 180
		angles = append(angles, a, math.Nextafter(a, math.Inf(1)), math.Nextafter(a, math.Inf(-1)),
			math.Nextafter(s, math.Inf(1))-180, math.Nextafter(s, math.Inf(-1))-180)
	}
	for k := 1.0; k <= 5; k++ {
		angles = append(angles, 360*k, -360*k, 360*k-180, -360*k+180)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		angles = append(angles, (rng.Float64()*2-1)*200, (rng.Float64()*2-1)*600, rng.NormFloat64()*1000)
	}
	for _, a := range angles {
		want := modWrap(a)
		for _, f := range []struct {
			name string
			fn   func(float64) float64
		}{{"NormalizeAngle", NormalizeAngle}, {"wrapAngle", wrapAngle}} {
			if got := f.fn(a); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s(%v) = %v (%#x), Mod form %v (%#x)",
					f.name, a, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

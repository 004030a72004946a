package vrmath

import "math"

// Pose is a 6-degree-of-freedom user pose: 3 DoF of virtual position and
// 3 DoF of head orientation, as in Section II of the paper.
type Pose struct {
	Pos   Vec3    // virtual location, metres
	Yaw   float64 // horizontal view direction, degrees in [-180, 180)
	Pitch float64 // vertical view direction, degrees in [-90, 90]
	Roll  float64 // head roll, degrees in [-180, 180)
}

// NormalizeAngle wraps an angle in degrees into [-180, 180).
func NormalizeAngle(a float64) float64 {
	if s := a + 180; s >= 0 && s < 360 {
		// Already in range, the common case on every per-slot path: Mod
		// would return s unchanged, so skipping it keeps the bits. The wrap
		// itself stays out of line so that this test inlines into callers.
		return s - 180
	}
	return wrapAngle(a)
}

// wrapAngle takes an angle one turn out of range back by one subtraction
// or addition of 360: by Sterbenz's lemma s-360 is exact for s in
// [360, 720), and for s in [-360, 0) Mod returns s itself, so both are the
// bits the Mod form gives. Anything further out falls through to it.
func wrapAngle(a float64) float64 {
	s := a + 180
	switch {
	case s >= 360 && s < 720:
		return (s - 360) - 180
	case s >= -360 && s < 0:
		return (s + 360) - 180
	}
	s = math.Mod(s, 360)
	if s < 0 {
		s += 360
	}
	return s - 180
}

// ClampPitch restricts a pitch angle to [-90, 90].
func ClampPitch(p float64) float64 {
	if p > 90 {
		return 90
	}
	if p < -90 {
		return -90
	}
	return p
}

// AngleDiff returns the signed smallest difference a-b wrapped into
// [-180, 180).
func AngleDiff(a, b float64) float64 { return NormalizeAngle(a - b) }

// Normalize returns the pose with yaw and roll wrapped into [-180, 180) and
// pitch clamped to [-90, 90].
func (p Pose) Normalize() Pose {
	return Pose{
		Pos:   p.Pos,
		Yaw:   NormalizeAngle(p.Yaw),
		Pitch: ClampPitch(p.Pitch),
		Roll:  NormalizeAngle(p.Roll),
	}
}

// FoV is an angular field-of-view rectangle centred on a view direction.
type FoV struct {
	HDeg float64 // total horizontal extent, degrees
	VDeg float64 // total vertical extent, degrees
}

// DefaultFoV matches the paper's observation that a user sees about 20% of
// the panoramic view: 120 degrees of 360 horizontally and 60 of 180
// vertically is 120*60/(360*180) ~= 11%, plus margin lands near 20%.
var DefaultFoV = FoV{HDeg: 120, VDeg: 60}

// Expand grows the field of view by margin degrees on every side, as the
// paper does to tolerate head-orientation prediction error. The vertical
// extent saturates at 180 degrees and the horizontal extent at 360.
func (f FoV) Expand(marginDeg float64) FoV {
	h := f.HDeg + 2*marginDeg
	v := f.VDeg + 2*marginDeg
	if h > 360 {
		h = 360
	}
	if v > 180 {
		v = 180
	}
	return FoV{HDeg: h, VDeg: v}
}

// ViewRect is the equirectangular footprint of a field of view centred at
// (yaw, pitch): yaw spans [YawLo, YawHi] (possibly wrapping around ±180) and
// pitch spans [PitchLo, PitchHi].
type ViewRect struct {
	YawLo, YawHi     float64
	PitchLo, PitchHi float64
}

// Rect computes the equirectangular footprint of the field of view f centred
// on the view direction of pose p.
func Rect(p Pose, f FoV) ViewRect {
	halfH := f.HDeg / 2
	halfV := f.VDeg / 2
	if f.HDeg >= 360 {
		// Full panorama: represent explicitly as [-180, 180] so that the
		// span arithmetic does not collapse to zero width.
		return ViewRect{
			YawLo:   -180,
			YawHi:   180,
			PitchLo: ClampPitch(p.Pitch - halfV),
			PitchHi: ClampPitch(p.Pitch + halfV),
		}
	}
	return ViewRect{
		YawLo:   NormalizeAngle(p.Yaw - halfH),
		YawHi:   NormalizeAngle(p.Yaw + halfH),
		PitchLo: ClampPitch(p.Pitch - halfV),
		PitchHi: ClampPitch(p.Pitch + halfV),
	}
}

// containsYaw reports whether the rect's (possibly wrapping) yaw interval
// contains the given yaw.
func (r ViewRect) containsYaw(yaw float64) bool {
	yaw = NormalizeAngle(yaw)
	if r.YawLo <= r.YawHi {
		return yaw >= r.YawLo && yaw <= r.YawHi
	}
	// Wrapped interval, e.g. [150, -150).
	return yaw >= r.YawLo || yaw <= r.YawHi
}

// OverlapsYawSpan reports whether the rect's yaw interval overlaps the span
// [lo, hi] (non-wrapping, lo <= hi).
func (r ViewRect) OverlapsYawSpan(lo, hi float64) bool {
	if r.YawLo <= r.YawHi {
		return r.YawLo <= hi && lo <= r.YawHi
	}
	// Wrapped: the rect covers [YawLo, 180) and [-180, YawHi].
	return lo <= r.YawHi || hi >= r.YawLo
}

// OverlapsPitchSpan reports whether the rect's pitch interval overlaps the
// span [lo, hi].
func (r ViewRect) OverlapsPitchSpan(lo, hi float64) bool {
	return r.PitchLo <= hi && lo <= r.PitchHi
}

// Covers reports whether rect r fully contains rect inner. It is used to
// decide whether a delivered (margin-expanded) portion covers the actual
// field of view, i.e. the indicator 1_n(t) of the paper.
func (r ViewRect) Covers(inner ViewRect) bool {
	if !coversYaw(r, inner) {
		return false
	}
	return r.PitchLo <= inner.PitchLo && r.PitchHi >= inner.PitchHi
}

func coversYaw(outer, inner ViewRect) bool {
	// Full-circle outer covers everything.
	if width(outer) >= 360-1e-9 {
		return true
	}
	if width(inner) > width(outer) {
		return false
	}
	return outer.containsYaw(inner.YawLo) && outer.containsYaw(inner.YawHi)
}

func width(r ViewRect) float64 {
	if r.YawHi-r.YawLo >= 360 {
		return 360
	}
	w := NormalizeAngle(r.YawHi - r.YawLo)
	if w < 0 {
		w += 360
	}
	return w
}

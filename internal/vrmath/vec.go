// Package vrmath provides the small geometric vocabulary shared by the VR
// pipeline: 3-D vectors, 6-DoF poses, angle arithmetic on the equirectangular
// sphere, and field-of-view rectangles.
//
// Angles are expressed in degrees throughout. Yaw is the horizontal view
// direction in [-180, 180) with 0 facing the centre of the equirectangular
// texture; pitch is the vertical direction in [-90, 90] with positive up.
package vrmath

import "math"

// Vec3 is a point or direction in the virtual world, in metres.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// dot returns the dot product of v and w.
func (v Vec3) dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.dot(v)) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

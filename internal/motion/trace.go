// Package motion provides the 6-DoF motion substrate of the reproduction:
// synthetic user traces standing in for the Firefly motion dataset (25 users
// over two large VR scenes), per-axis linear-regression prediction of the
// next slot's pose (the predictor the paper uses in both the simulation and
// the real system), and the FoV-coverage evaluation that realizes the
// indicator 1_n(t) of Section II.
package motion

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/randsrc"
	"repro/internal/vrmath"
)

// Trace is a sequence of poses, one per time slot.
type Trace []vrmath.Pose

// Scene describes the walkable area of a VR scene and the character of the
// motion its visitors exhibit.
type Scene struct {
	Name string
	// Width and Depth bound the walkable rectangle [0,Width] x [0,Depth]
	// metres.
	Width, Depth float64
	// WalkSpeed is the mean walking speed in m/s.
	WalkSpeed float64
	// TurnRate controls how quickly users swing their heads (deg/s scale of
	// the orientation process).
	TurnRate float64
	// Jitter is the per-slot orientation noise in degrees; larger values
	// make motion harder to predict (lower delta_n).
	Jitter float64
}

// Scenes returns the two scene profiles used throughout the reproduction,
// standing in for the paper's two large VR scenes (the Firefly dataset) and
// its Unity "Office" scene.
func Scenes() [2]Scene {
	return [2]Scene{
		{Name: "office", Width: 10, Depth: 8, WalkSpeed: 0.8, TurnRate: 45, Jitter: 0.6},
		{Name: "museum", Width: 20, Depth: 15, WalkSpeed: 1.2, TurnRate: 70, Jitter: 1.2},
	}
}

// Generate synthesizes a trace of the given number of slots for one user of
// a scene: the walk's first poses, one per slot (see Walker). The generator
// is deterministic in (scene, user, seed).
func Generate(scene Scene, user int, slots int, slotsPerSecond float64, seed int64) Trace {
	var w Walker
	w.Reset(scene, user, slotsPerSecond, seed, nil)
	trace := make(Trace, slots)
	for i := range trace {
		trace[i] = w.Next()
	}
	return trace
}

// Walker streams one user's motion a slot at a time, so a session that
// reads one pose per slot holds its walk state and random source instead of
// its whole trace. Motion is a random-waypoint walk; head yaw follows the
// walking direction through a smoothed process with noise, pitch and roll
// revert to neutral.
type Walker struct {
	scene            Scene
	dt               float64
	rng              *rand.Rand
	pos, target      vrmath.Vec3
	speed            float64
	yaw, pitch, roll float64
}

// Reset starts the walk of (scene, user, seed) at slotsPerSecond (60 when
// not positive). It reseeds rng and keeps drawing from it, so a caller that
// owns a *rand.Rand can lend it for the walk's life instead of paying for a
// fresh one; nil allocates one.
func (w *Walker) Reset(scene Scene, user int, slotsPerSecond float64, seed int64, rng *rand.Rand) {
	if slotsPerSecond <= 0 {
		slotsPerSecond = 60
	}
	seed ^= int64(user)*0x9E3779B9 ^ int64(len(scene.Name))
	if rng == nil {
		rng = randsrc.NewRand(seed)
	} else {
		rng.Seed(seed)
	}
	*w = Walker{scene: scene, dt: 1 / slotsPerSecond, rng: rng}
	w.pos = vrmath.Vec3{X: rng.Float64() * scene.Width, Z: rng.Float64() * scene.Depth}
	w.target = vrmath.Vec3{X: rng.Float64() * scene.Width, Z: rng.Float64() * scene.Depth}
	w.speed = scene.WalkSpeed * (0.7 + 0.6*rng.Float64())
	w.yaw = rng.Float64()*360 - 180
}

// Next advances the walk one slot and returns the slot's pose.
func (w *Walker) Next() vrmath.Pose {
	scene, rng, dt := &w.scene, w.rng, w.dt
	// Walk toward the waypoint; pick a new one when close.
	to := w.target.Sub(w.pos)
	dist := to.Norm()
	if dist < 0.1 {
		w.target = vrmath.Vec3{X: rng.Float64() * scene.Width, Z: rng.Float64() * scene.Depth}
		w.speed = scene.WalkSpeed * (0.7 + 0.6*rng.Float64())
		to = w.target.Sub(w.pos)
		dist = to.Norm()
	}
	step := w.speed * dt
	if step > dist {
		step = dist
	}
	if dist > 0 {
		w.pos = w.pos.Add(to.Scale(step / dist))
	}

	// Head yaw chases the walking direction with exponential smoothing
	// plus a slow wander and white jitter.
	walkYaw := math.Atan2(to.X, to.Z) * 180 / math.Pi
	yawErr := vrmath.AngleDiff(walkYaw, w.yaw)
	maxTurn := scene.TurnRate * dt
	turn := clamp(yawErr*0.05, -maxTurn, maxTurn)
	w.yaw = vrmath.NormalizeAngle(w.yaw + turn + rng.NormFloat64()*scene.Jitter*dt*10)

	// Pitch and roll: mean-reverting with noise.
	w.pitch = clamp(w.pitch*0.995+rng.NormFloat64()*scene.Jitter*dt*8, -60, 60)
	w.roll = clamp(w.roll*0.99+rng.NormFloat64()*scene.Jitter*dt*4, -30, 30)

	return vrmath.Pose{Pos: w.pos, Yaw: w.yaw, Pitch: w.pitch, Roll: w.roll}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Dataset is a collection of traces indexed by user, mirroring the paper's
// "motion trace dataset ... collected from two large VR scenes among 25
// users".
type Dataset struct {
	Traces []Trace
}

// GenerateDataset builds the standard dataset: users split evenly across the
// two scenes.
func GenerateDataset(users, slots int, slotsPerSecond float64, seed int64) *Dataset {
	scenes := Scenes()
	ds := &Dataset{Traces: make([]Trace, users)}
	for u := 0; u < users; u++ {
		ds.Traces[u] = Generate(scenes[u%2], u, slots, slotsPerSecond, seed)
	}
	return ds
}

// WriteCSV serializes a trace as slot,x,y,z,yaw,pitch,roll rows.
func (tr Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"slot", "x", "y", "z", "yaw", "pitch", "roll"}); err != nil {
		return fmt.Errorf("motion: write header: %w", err)
	}
	for i, p := range tr {
		rec := []string{
			strconv.Itoa(i),
			formatF(p.Pos.X), formatF(p.Pos.Y), formatF(p.Pos.Z),
			formatF(p.Yaw), formatF(p.Pitch), formatF(p.Roll),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("motion: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("motion: read csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("motion: empty csv")
	}
	var trace Trace
	for i, row := range rows[1:] {
		if len(row) != 7 {
			return nil, fmt.Errorf("motion: row %d has %d fields, want 7", i, len(row))
		}
		vals := make([]float64, 6)
		for j := 0; j < 6; j++ {
			v, err := strconv.ParseFloat(row[j+1], 64)
			if err != nil {
				return nil, fmt.Errorf("motion: row %d field %d: %w", i, j+1, err)
			}
			vals[j] = v
		}
		trace = append(trace, vrmath.Pose{
			Pos:   vrmath.Vec3{X: vals[0], Y: vals[1], Z: vals[2]},
			Yaw:   vals[3],
			Pitch: vals[4],
			Roll:  vals[5],
		})
	}
	return trace, nil
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }

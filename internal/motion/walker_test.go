package motion

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/randsrc"
	"repro/internal/vrmath"
)

// referenceGenerate is the whole-trace random-waypoint generator as it
// stood before the walk was streamed, drawing from math/rand's own source:
// the oracle Walker and Generate are held to bit for bit.
func referenceGenerate(scene Scene, user int, slots int, slotsPerSecond float64, seed int64) Trace {
	if slotsPerSecond <= 0 {
		slotsPerSecond = 60
	}
	dt := 1 / slotsPerSecond
	rng := rand.New(rand.NewSource(seed ^ int64(user)*0x9E3779B9 ^ int64(len(scene.Name))))
	trace := make(Trace, slots)
	pos := vrmath.Vec3{X: rng.Float64() * scene.Width, Z: rng.Float64() * scene.Depth}
	target := vrmath.Vec3{X: rng.Float64() * scene.Width, Z: rng.Float64() * scene.Depth}
	speed := scene.WalkSpeed * (0.7 + 0.6*rng.Float64())
	yaw := rng.Float64()*360 - 180
	pitch, roll := 0.0, 0.0
	for i := 0; i < slots; i++ {
		to := target.Sub(pos)
		dist := to.Norm()
		if dist < 0.1 {
			target = vrmath.Vec3{X: rng.Float64() * scene.Width, Z: rng.Float64() * scene.Depth}
			speed = scene.WalkSpeed * (0.7 + 0.6*rng.Float64())
			to = target.Sub(pos)
			dist = to.Norm()
		}
		step := speed * dt
		if step > dist {
			step = dist
		}
		if dist > 0 {
			pos = pos.Add(to.Scale(step / dist))
		}
		walkYaw := math.Atan2(to.X, to.Z) * 180 / math.Pi
		yawErr := vrmath.AngleDiff(walkYaw, yaw)
		maxTurn := scene.TurnRate * dt
		turn := clamp(yawErr*0.05, -maxTurn, maxTurn)
		yaw = vrmath.NormalizeAngle(yaw + turn + rng.NormFloat64()*scene.Jitter*dt*10)
		pitch = clamp(pitch*0.995+rng.NormFloat64()*scene.Jitter*dt*8, -60, 60)
		roll = clamp(roll*0.99+rng.NormFloat64()*scene.Jitter*dt*4, -30, 30)
		trace[i] = vrmath.Pose{Pos: pos, Yaw: yaw, Pitch: pitch, Roll: roll}
	}
	return trace
}

// TestWalkerMatchesGenerate holds Generate, a Walker with its own source and
// a Walker reset over a lent, already-used source to the reference walk, for
// both scenes, several users and seeds and three slot rates (0 meaning the
// default) — long enough that every walk turns at several waypoints.
func TestWalkerMatchesGenerate(t *testing.T) {
	const slots = 3000
	lent := randsrc.NewRand(99)
	for _, scene := range Scenes() {
		for _, sps := range []float64{0, 60, 90} {
			for _, c := range []struct {
				user int
				seed int64
			}{{0, 1}, {3, 42}, {17, -5}, {24, math.MaxInt64}} {
				want := referenceGenerate(scene, c.user, slots, sps, c.seed)
				got := Generate(scene, c.user, slots, sps, c.seed)
				var own, borrowed Walker
				own.Reset(scene, c.user, sps, c.seed, nil)
				lent.Int63()
				borrowed.Reset(scene, c.user, sps, c.seed, lent)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s user %d seed %d sps %v: Generate slot %d = %+v, want %+v",
							scene.Name, c.user, c.seed, sps, i, got[i], want[i])
					}
					if p := own.Next(); p != want[i] {
						t.Fatalf("%s user %d seed %d sps %v: Walker slot %d = %+v, want %+v",
							scene.Name, c.user, c.seed, sps, i, p, want[i])
					}
					if p := borrowed.Next(); p != want[i] {
						t.Fatalf("%s user %d seed %d sps %v: lent-source Walker slot %d = %+v, want %+v",
							scene.Name, c.user, c.seed, sps, i, p, want[i])
					}
				}
			}
		}
	}
}

func TestWalkerNextDoesNotAllocate(t *testing.T) {
	var w Walker
	w.Reset(Scenes()[1], 2, 60, 7, nil)
	if n := testing.AllocsPerRun(1000, func() { w.Next() }); n != 0 {
		t.Errorf("Walker.Next allocates %v times, want 0", n)
	}
}

package tiles

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/vrmath"
)

func TestTileSpansPartitionSphere(t *testing.T) {
	var yawCover, pitchCover float64
	for id := TileID(0); id < NumTiles; id++ {
		yawLo, yawHi, pitchLo, pitchHi := id.span()
		if yawHi <= yawLo || pitchHi <= pitchLo {
			t.Errorf("tile %d has degenerate span", id)
		}
		yawCover += (yawHi - yawLo) * (pitchHi - pitchLo)
		_ = pitchCover
	}
	if yawCover != 360*180 {
		t.Errorf("tiles cover %v deg^2, want %v", yawCover, 360*180)
	}
}

func TestForRectCenterView(t *testing.T) {
	// Looking straight ahead (yaw 0, pitch 0) with a 120x60 FoV touches all
	// four tiles (the view straddles both yaw halves and both pitch halves).
	got := ForViewAppend(nil, vrmath.Pose{}, vrmath.FoV{HDeg: 120, VDeg: 60}, 0)
	if len(got) != 4 {
		t.Errorf("central view overlaps %d tiles, want 4: %v", len(got), got)
	}
}

func TestForRectCornerView(t *testing.T) {
	// Looking up-left, narrow FoV: only tile 0.
	p := vrmath.Pose{Yaw: -90, Pitch: 45}
	got := ForViewAppend(nil, p, vrmath.FoV{HDeg: 60, VDeg: 40}, 0)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("corner view = %v, want [0]", got)
	}
}

func TestForRectSeamView(t *testing.T) {
	// Looking at the +/-180 seam, slightly up: tiles 0 and 1.
	p := vrmath.Pose{Yaw: -179, Pitch: 45}
	got := ForViewAppend(nil, p, vrmath.FoV{HDeg: 60, VDeg: 40}, 0)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("seam view = %v, want [0 1]", got)
	}
}

func TestForViewNeverEmptyProperty(t *testing.T) {
	f := func(yaw16, pitch16 int16, h8, v8 uint8) bool {
		p := vrmath.Pose{
			Yaw:   float64(yaw16) / 100,
			Pitch: float64(pitch16%90) / 2,
		}.Normalize()
		fov := vrmath.FoV{HDeg: 30 + float64(h8%150), VDeg: 20 + float64(v8%100)}
		return len(ForViewAppend(nil, p, fov, 0)) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestMarginOnlyAddsTiles(t *testing.T) {
	f := func(yaw16, pitch16 int16, m8 uint8) bool {
		p := vrmath.Pose{
			Yaw:   float64(yaw16) / 100,
			Pitch: float64(pitch16%80) / 2,
		}.Normalize()
		fov := vrmath.DefaultFoV
		base := ForViewAppend(nil, p, fov, 0)
		wide := ForViewAppend(nil, p, fov, float64(m8%60))
		set := make(map[TileID]bool, len(wide))
		for _, id := range wide {
			set[id] = true
		}
		for _, id := range base {
			if !set[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCellFor(t *testing.T) {
	tests := []struct {
		x, z  float64
		wantX int32
		wantZ int32
	}{
		{0, 0, 0, 0},
		{0.049, 0.049, 0, 0},
		{0.05, 0.05, 1, 1},
		{-0.01, -0.06, -1, -2},
		{1.0, -1.0, 20, -20},
	}
	for _, tt := range tests {
		got := CellFor(vrmath.Vec3{X: tt.x, Z: tt.z})
		if got.X != tt.wantX || got.Z != tt.wantZ {
			t.Errorf("CellFor(%v, %v) = %+v, want {%d %d}", tt.x, tt.z, got, tt.wantX, tt.wantZ)
		}
	}
}

func TestCRFMapping(t *testing.T) {
	// Paper: CRF {15,19,23,27,31,35} <-> levels {6,5,4,3,2,1}.
	wantByLevel := map[int]int{1: 35, 2: 31, 3: 27, 4: 23, 5: 19, 6: 15}
	for level, crf := range wantByLevel {
		got, err := CRFForLevel(level)
		if err != nil || got != crf {
			t.Errorf("CRFForLevel(%d) = %d, %v; want %d", level, got, err, crf)
		}
		back, err := LevelForCRF(crf)
		if err != nil || back != level {
			t.Errorf("LevelForCRF(%d) = %d, %v; want %d", crf, back, err, level)
		}
	}
	if _, err := CRFForLevel(0); err == nil {
		t.Error("level 0 should error")
	}
	if _, err := CRFForLevel(7); err == nil {
		t.Error("level 7 should error")
	}
	if _, err := LevelForCRF(20); err == nil {
		t.Error("unknown CRF should error")
	}
}

func TestVideoIDRoundTrip(t *testing.T) {
	f := func(x, z int16, tile8, level8 uint8) bool {
		cell := CellID{X: int32(x), Z: int32(z)}
		tile := TileID(tile8 % NumTiles)
		level := int(level8%Levels) + 1
		id, err := PackVideoID(cell, tile, level)
		if err != nil {
			return false
		}
		c2, t2, l2 := id.Unpack()
		return c2 == cell && t2 == tile && l2 == level
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVideoIDUnique(t *testing.T) {
	seen := make(map[VideoID]bool)
	for x := int32(-3); x <= 3; x++ {
		for z := int32(-3); z <= 3; z++ {
			for tile := TileID(0); tile < NumTiles; tile++ {
				for level := 1; level <= Levels; level++ {
					id, err := PackVideoID(CellID{x, z}, tile, level)
					if err != nil {
						t.Fatal(err)
					}
					if seen[id] {
						t.Fatalf("duplicate id %v", id)
					}
					seen[id] = true
				}
			}
		}
	}
}

func TestVideoIDErrors(t *testing.T) {
	if _, err := PackVideoID(CellID{}, 0, 0); err == nil {
		t.Error("level 0 should error")
	}
	if _, err := PackVideoID(CellID{}, 9, 1); err == nil {
		t.Error("tile 9 should error")
	}
	if _, err := PackVideoID(CellID{X: 1 << 24}, 0, 1); err == nil {
		t.Error("huge cell should error")
	}
}

func TestVideoIDString(t *testing.T) {
	id, err := PackVideoID(CellID{X: 2, Z: -3}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := id.String(); got != "cell(2,-3)/t1/q4" {
		t.Errorf("String = %q", got)
	}
}

// LevelForCRF returns the quality level of a CRF value: CRFForLevel's
// inverse, for the mapping test.
func LevelForCRF(crf int) (int, error) {
	for i, c := range crfValues {
		if c == crf {
			return i + 1, nil
		}
	}
	return 0, fmt.Errorf("tiles: unknown CRF %d", crf)
}

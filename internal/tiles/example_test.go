package tiles_test

import (
	"fmt"

	"repro/internal/tiles"
	"repro/internal/vrmath"
)

// ExampleForViewAppend selects the tiles to deliver for a user looking slightly
// up and to the left, with the FoV margin the paper uses to absorb
// prediction error.
func ExampleForViewAppend() {
	pose := vrmath.Pose{Pos: vrmath.Vec3{X: 1.0, Z: 2.5}, Yaw: -60, Pitch: 10}
	sel := tiles.ForViewAppend(nil, pose, vrmath.DefaultFoV, 15)
	fmt.Println("tiles:", sel)

	cell := tiles.CellFor(pose.Pos)
	fmt.Printf("cell: (%d, %d)\n", cell.X, cell.Z)

	id, _ := tiles.PackVideoID(cell, sel[0], 4)
	fmt.Println("video id:", id)
	// Output:
	// tiles: [0 1 2 3]
	// cell: (20, 50)
	// video id: cell(20,50)/t0/q4
}

// ExampleSizeModel_RateTableInto builds the rate ladder f^R(q) the allocator
// consumes for a two-tile selection.
func ExampleSizeModel_RateTableInto() {
	m := tiles.NewSizeModel(1)
	cell := tiles.CellID{X: 20, Z: 50}
	table := make([]float64, tiles.Levels)
	m.RateTableInto(table, cell, []tiles.TileID{0, 2})
	for q, rate := range table {
		crf, _ := tiles.CRFForLevel(q + 1)
		fmt.Printf("level %d (CRF %d): %.1f Mbps\n", q+1, crf, rate)
	}
	// Output:
	// level 1 (CRF 35): 9.3 Mbps
	// level 2 (CRF 31): 15.2 Mbps
	// level 3 (CRF 27): 24.5 Mbps
	// level 4 (CRF 23): 39.7 Mbps
	// level 5 (CRF 19): 64.2 Mbps
	// level 6 (CRF 15): 103.9 Mbps
}

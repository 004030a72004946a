// Package tiles models the paper's content pipeline (Section V): the
// panoramic scene is projected to an equirectangular texture, split into
// four tiles (Fig. 5), rendered offline for every 5cm x 5cm cell of the
// virtual grid world, and encoded at six CRF values {15,19,23,27,31,35}
// indexed by quality levels {6,...,1}. Tiles are addressed by a video ID
// packing (cell, tile, quality), exactly as the paper's runtime does.
//
// Because the original 171 GB Unity-rendered content cannot ship with a
// reproduction, sizes come from an analytic convex size model (matching
// Fig. 1a) and payload bytes are generated deterministically on demand.
package tiles

import (
	"fmt"

	"repro/internal/vrmath"
)

// NumTiles is the number of tiles per panoramic frame (2x2 split, Fig. 5).
const NumTiles = 4

// TileID identifies one of the four equirectangular tiles.
//
//	0: yaw [-180, 0), pitch [0, 90]     (top left)
//	1: yaw [0, 180),  pitch [0, 90]     (top right)
//	2: yaw [-180, 0), pitch [-90, 0)    (bottom left)
//	3: yaw [0, 180),  pitch [-90, 0)    (bottom right)
type TileID uint8

// span returns the equirectangular footprint of the tile.
func (t TileID) span() (yawLo, yawHi, pitchLo, pitchHi float64) {
	switch t {
	case 0:
		return -180, 0, 0, 90
	case 1:
		return 0, 180, 0, 90
	case 2:
		return -180, 0, -90, 0
	case 3:
		return 0, 180, -90, 0
	default:
		return 0, 0, 0, 0
	}
}

// ForViewAppend appends to dst the tiles whose footprint overlaps the fov
// (plus margin) centred on the pose, in increasing TileID order
// (allocation-free once dst has capacity). A valid view always overlaps at
// least one tile.
func ForViewAppend(dst []TileID, p vrmath.Pose, fov vrmath.FoV, marginDeg float64) []TileID {
	r := vrmath.Rect(p, fov.Expand(marginDeg))
	for t := TileID(0); t < NumTiles; t++ {
		yawLo, yawHi, pitchLo, pitchHi := t.span()
		if r.OverlapsYawSpan(yawLo, yawHi) && r.OverlapsPitchSpan(pitchLo, pitchHi) {
			dst = append(dst, t)
		}
	}
	return dst
}

// cellSize is the grid-world granularity in metres ("we split the whole
// panoramic scene into a grid world with the granularity of 5cm x 5cm").
const cellSize = 0.05

// CellID addresses one grid cell of the virtual floor plan.
type CellID struct {
	X, Z int32
}

// CellFor returns the cell containing a virtual position (the Y axis is
// height and does not participate in the grid).
func CellFor(pos vrmath.Vec3) CellID {
	return CellID{
		X: int32(floorDiv(pos.X, cellSize)),
		Z: int32(floorDiv(pos.Z, cellSize)),
	}
}

func floorDiv(x, step float64) float64 {
	q := x / step
	f := float64(int64(q))
	if q < 0 && q != f {
		f--
	}
	return f
}

// Levels is the size of the quality set (L = 6 in the paper).
const Levels = 6

// crfValues maps quality level (1-based index-1) to the FFmpeg CRF value the
// paper encodes with; level 1 is CRF 35 (lowest quality), level 6 is CRF 15.
var crfValues = [Levels]int{35, 31, 27, 23, 19, 15}

// CRFForLevel returns the CRF value of a quality level in 1..6.
func CRFForLevel(level int) (int, error) {
	if level < 1 || level > Levels {
		return 0, fmt.Errorf("tiles: level %d out of range 1..%d", level, Levels)
	}
	return crfValues[level-1], nil
}

// VideoID packs (cell, tile, quality level) into a single identifier, the
// paper's "video ID corresponding to their position, tile ID, and quality".
// Layout (LSB first): 4 bits level, 2 bits tile, 24 bits cell X (offset
// binary), 24 bits cell Z.
type VideoID uint64

const cellBias = 1 << 23

// PackVideoID builds a VideoID. Level must be 1..Levels and the cell
// coordinates must fit in 24 bits after biasing.
func PackVideoID(cell CellID, tile TileID, level int) (VideoID, error) {
	if level < 1 || level > Levels {
		return 0, fmt.Errorf("tiles: level %d out of range", level)
	}
	if tile >= NumTiles {
		return 0, fmt.Errorf("tiles: tile %d out of range", tile)
	}
	bx := int64(cell.X) + cellBias
	bz := int64(cell.Z) + cellBias
	if bx < 0 || bx >= 1<<24 || bz < 0 || bz >= 1<<24 {
		return 0, fmt.Errorf("tiles: cell %+v out of range", cell)
	}
	id := VideoID(level) |
		VideoID(tile)<<4 |
		VideoID(bx)<<6 |
		VideoID(bz)<<30
	return id, nil
}

// Unpack splits a VideoID into its components.
func (id VideoID) Unpack() (cell CellID, tile TileID, level int) {
	level = int(id & 0xF)
	tile = TileID((id >> 4) & 0x3)
	cell.X = int32((id>>6)&0xFFFFFF) - cellBias
	cell.Z = int32((id>>30)&0xFFFFFF) - cellBias
	return cell, tile, level
}

// String renders a VideoID for logs.
func (id VideoID) String() string {
	cell, tile, level := id.Unpack()
	return fmt.Sprintf("cell(%d,%d)/t%d/q%d", cell.X, cell.Z, tile, level)
}

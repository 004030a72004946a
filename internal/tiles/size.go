package tiles

import (
	"math"
)

// baseTileRates[l] is the streaming rate in Mbps of one tile encoded at
// quality level l+1, for a nominal content. The ladder is convex in the
// level (increasing increments), reproducing the shape of Fig. 1a, and is
// calibrated so that a typical 2-3 tile selection at a medium level needs
// about 36 Mbps — the paper's per-user server budget ("36 Mbps times the
// number of users, which respects the average rate requirement of the tiles
// by a medium quality level").
var baseTileRates = [Levels]float64{4.0, 6.5, 10.5, 17.0, 27.5, 44.5}

// SizeModel produces deterministic per-content tile sizes. Different cells
// and tiles get different (but fixed) complexity multipliers, mimicking the
// content dependence visible in Fig. 1a where two contents trace two
// distinct convex curves.
type SizeModel struct {
	// Spread is the half-width of the content-complexity multiplier range;
	// a tile's multiplier lies in [1-Spread, 1+Spread]. Default 0.25.
	Spread float64
	// Seed decorrelates size models of different scenes.
	Seed uint64
}

// NewSizeModel returns a size model with the default spread.
func NewSizeModel(seed uint64) *SizeModel { return &SizeModel{Spread: 0.25, Seed: seed} }

// complexity returns the deterministic multiplier of a (cell, tile) pair.
func (m *SizeModel) complexity(cell CellID, tile TileID) float64 {
	h := splitmix(m.Seed ^ uint64(uint32(cell.X))<<32 ^ uint64(uint32(cell.Z))<<2 ^ uint64(tile))
	u := float64(h>>11) / float64(1<<53) // uniform in [0, 1)
	spread := m.Spread
	if spread <= 0 {
		spread = 0.25
	}
	return 1 - spread + 2*spread*u
}

// TileRate returns the rate in Mbps needed to stream one tile of the given
// cell at the given quality level. It is convex and increasing in the
// level for every content.
func (m *SizeModel) TileRate(cell CellID, tile TileID, level int) float64 {
	if level < 1 {
		level = 1
	}
	if level > Levels {
		level = Levels
	}
	// The conversion rounds the product, so no architecture fuses it into a
	// caller's sum and RateTableInto's sums stay SelectionRate's bit for bit.
	return float64(baseTileRates[level-1] * m.complexity(cell, tile))
}

// SelectionRate returns f^R_c(q): the total rate in Mbps of delivering the
// given tiles of a cell at quality level q. This is the weight function of
// the knapsack problem.
func (m *SizeModel) SelectionRate(cell CellID, sel []TileID, level int) float64 {
	var sum float64
	for _, t := range sel {
		sum += m.TileRate(cell, t, level)
	}
	return sum
}

// RateTable returns the full quality ladder of a selection: table[q-1] is
// SelectionRate at level q. The table is convex and increasing in q.
func (m *SizeModel) RateTable(cell CellID, sel []TileID) []float64 {
	table := make([]float64, Levels)
	m.RateTableInto(table, cell, sel)
	return table
}

// RateTableInto is RateTable writing into caller-provided table
// (len(table) must be Levels); identical values, no allocation. A tile's
// complexity does not depend on the level, so each tile is hashed once and
// its Levels products are added in tile order: every entry is the sum
// SelectionRate forms, term for term and in the same order.
func (m *SizeModel) RateTableInto(table []float64, cell CellID, sel []TileID) {
	table = table[:Levels]
	clear(table)
	for _, t := range sel {
		c := m.complexity(cell, t)
		for q, base := range baseTileRates {
			table[q] += float64(base * c)
		}
	}
}

// TileBytes converts a tile's rate into the payload size in bytes of one
// slot's frame at the given display rate (frames per second).
func (m *SizeModel) TileBytes(cell CellID, tile TileID, level int, fps float64) int {
	if fps <= 0 {
		fps = 60
	}
	bits := m.TileRate(cell, tile, level) * 1e6 / fps
	return int(math.Ceil(bits / 8))
}

// splitmix is the SplitMix64 hash, used for deterministic per-content
// variation without carrying rand state.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

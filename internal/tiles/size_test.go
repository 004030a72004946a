package tiles

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTileRateConvexIncreasing is the Fig. 1a property: for every content,
// size grows convexly with the quality level.
func TestTileRateConvexIncreasing(t *testing.T) {
	m := NewSizeModel(1)
	f := func(x, z int16, tile8 uint8) bool {
		cell := CellID{X: int32(x), Z: int32(z)}
		tile := TileID(tile8 % NumTiles)
		rates := make([]float64, Levels)
		for q := 1; q <= Levels; q++ {
			rates[q-1] = m.TileRate(cell, tile, q)
			if q > 1 && rates[q-1] <= rates[q-2] {
				return false // must be strictly increasing
			}
		}
		for q := 2; q < Levels; q++ {
			inc1 := rates[q-1] - rates[q-2]
			inc2 := rates[q] - rates[q-1]
			if inc2 < inc1-1e-9 {
				return false // increments must not shrink: convex
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTileRateContentDependent(t *testing.T) {
	m := NewSizeModel(1)
	a := m.TileRate(CellID{0, 0}, 0, 3)
	b := m.TileRate(CellID{17, 23}, 2, 3)
	if a == b {
		t.Errorf("different contents should have different sizes (got %v twice)", a)
	}
	// Deterministic: same input, same output.
	if got := m.TileRate(CellID{0, 0}, 0, 3); got != a {
		t.Errorf("size model is not deterministic: %v vs %v", got, a)
	}
}

func TestTileRateSpreadBounds(t *testing.T) {
	m := NewSizeModel(7)
	for x := int32(-20); x <= 20; x++ {
		for tile := TileID(0); tile < NumTiles; tile++ {
			r := m.TileRate(CellID{x, -x}, tile, 1)
			lo, hi := baseTileRates[0]*0.75, baseTileRates[0]*1.25
			if r < lo || r > hi {
				t.Fatalf("rate %v outside [%v, %v]", r, lo, hi)
			}
		}
	}
}

func TestTileRateLevelClamping(t *testing.T) {
	m := NewSizeModel(1)
	cell := CellID{1, 1}
	if m.TileRate(cell, 0, 0) != m.TileRate(cell, 0, 1) {
		t.Errorf("level 0 should clamp to 1")
	}
	if m.TileRate(cell, 0, 9) != m.TileRate(cell, 0, Levels) {
		t.Errorf("level 9 should clamp to %d", Levels)
	}
}

func TestRateTableMatchesSelectionRate(t *testing.T) {
	m := NewSizeModel(3)
	cell := CellID{5, -2}
	sel := []TileID{0, 1, 3}
	table := make([]float64, Levels)
	m.RateTableInto(table, cell, sel)
	for q := 1; q <= Levels; q++ {
		if table[q-1] != m.selectionRate(cell, sel, q) {
			t.Errorf("table[%d] mismatch", q-1)
		}
	}
	// Convexity carries over to selections.
	for q := 2; q < Levels; q++ {
		inc1 := table[q-1] - table[q-2]
		inc2 := table[q] - table[q-1]
		if inc2 < inc1-1e-9 {
			t.Errorf("selection table not convex at q=%d", q)
		}
	}
}

func TestMediumQualityNearServerBudget(t *testing.T) {
	// The paper sets the per-user server budget to 36 Mbps because that is
	// "the average rate requirement of the tiles by a medium quality level".
	// Check that a typical 2-3 tile selection at levels 3-4 brackets 36.
	m := NewSizeModel(1)
	var sum float64
	var count int
	for x := int32(0); x < 50; x++ {
		cell := CellID{x, x * 3}
		sum += m.selectionRate(cell, []TileID{0, 1}, 4)
		sum += m.selectionRate(cell, []TileID{0, 1, 2}, 3)
		count += 2
	}
	avg := sum / float64(count)
	if avg < 25 || avg > 50 {
		t.Errorf("medium-quality selection averages %v Mbps, want near 36", avg)
	}
}

func TestTileBytes(t *testing.T) {
	m := NewSizeModel(1)
	cell := CellID{0, 0}
	b60 := m.tileBytes(cell, 0, 3, 60)
	b30 := m.tileBytes(cell, 0, 3, 30)
	if b30 < 2*b60-8 || b30 > 2*b60+8 {
		t.Errorf("halving fps should double bytes: %d vs %d", b60, b30)
	}
	if m.tileBytes(cell, 0, 3, 0) != b60 {
		t.Errorf("fps 0 should default to 60")
	}
	wantBits := m.TileRate(cell, 0, 3) * 1e6 / 60
	if got := float64(b60 * 8); got < wantBits || got > wantBits+8 {
		t.Errorf("bytes %v do not match rate %v bits", got, wantBits)
	}
}

// TestRateTableIntoBitIdentical: RateTableInto hashes each tile once and adds
// its ladder in tile order, and every entry must be selectionRate's to the
// last bit — the engines' goldens rest on these sums. Cells span the whole
// int32 plane, negative coordinates included; selections hold 0 to 8 tiles,
// repeats allowed, so adding the tiles in any other order changes some
// entry's low bits and fails here. The table starts dirty, as a reused one
// does.
func TestRateTableIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	table := make([]float64, Levels)
	sel := make([]TileID, 0, 8)
	for trial := 0; trial < 20000; trial++ {
		m := NewSizeModel(rng.Uint64())
		cell := CellID{X: int32(rng.Uint32()), Z: int32(rng.Uint32())}
		sel = sel[:rng.Intn(9)]
		for i := range sel {
			sel[i] = TileID(rng.Intn(NumTiles))
		}
		for q := range table {
			table[q] = math.NaN()
		}
		m.RateTableInto(table, cell, sel)
		for q := 1; q <= Levels; q++ {
			if want := m.selectionRate(cell, sel, q); math.Float64bits(table[q-1]) != math.Float64bits(want) {
				t.Fatalf("trial %d (cell %v, tiles %v): level %d = %v, selectionRate %v",
					trial, cell, sel, q, table[q-1], want)
			}
		}
	}
}

// selectionRate is f^R_c(q) summed tile by tile at one level: the oracle
// RateTableInto's per-level sums must equal to the last bit.
func (m *SizeModel) selectionRate(cell CellID, sel []TileID, level int) float64 {
	var sum float64
	for _, t := range sel {
		sum += m.TileRate(cell, t, level)
	}
	return sum
}

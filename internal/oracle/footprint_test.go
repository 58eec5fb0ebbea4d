package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fppc/internal/grid"
)

// TestFootprintRenderingMatchesFmt pins the footprint-digest byte
// format: appendFootprint over sortCells must produce exactly what
// fmt.Sprintf("%v@%.9g", cells, volume) produces for the cells sorted by
// (y,x) — the rendering FootprintHash has always digested, and which is
// wire-visible as verification.footprint_hash.
func TestFootprintRenderingMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	volumes := []float64{0, 1, 2, 0.5, 0.25, 1.5, 3, 1.0 / 3, 2.0 / 3, 1e-7, 123456789, 1234567891,
		1e21, 5e-324, math.MaxFloat64, math.Copysign(0, -1), -1.5, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 2000; i++ {
		n := rng.Intn(4)
		cells := make([]grid.Cell, n)
		for j := range cells {
			cells[j] = grid.Cell{X: rng.Intn(40) - 5, Y: rng.Intn(40) - 5}
		}
		vol := volumes[rng.Intn(len(volumes))]
		if rng.Intn(2) == 0 {
			vol = rng.Float64() * math.Pow(2, float64(rng.Intn(20)-10))
		}
		want := append([]grid.Cell(nil), cells...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Y != want[j].Y {
				return want[i].Y < want[j].Y
			}
			return want[i].X < want[j].X
		})
		wantText := fmt.Sprintf("%v@%.9g", want, vol)

		got := append([]grid.Cell(nil), cells...)
		sortCells(got)
		gotText := string(appendFootprint(nil, got, vol))
		if gotText != wantText {
			t.Fatalf("cells %v volume %v: rendered %q, fmt renders %q", cells, vol, gotText, wantText)
		}
	}
}

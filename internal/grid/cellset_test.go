package grid

import (
	"math"
	"math/rand"
	"testing"
)

// randomProbe draws a cell on or just off a w×h array: the
// out-of-bounds cells are the Neighbors4 of edge cells, plus a few far
// away.
func randomProbe(rng *rand.Rand, w, h int) Cell {
	switch rng.Intn(8) {
	case 0:
		edge := Cell{X: rng.Intn(w), Y: 0}
		if rng.Intn(2) == 1 {
			edge = Cell{X: 0, Y: rng.Intn(h)}
		}
		return edge.Neighbors4()[rng.Intn(4)]
	case 1:
		edge := Cell{X: rng.Intn(w), Y: h - 1}
		if rng.Intn(2) == 1 {
			edge = Cell{X: w - 1, Y: rng.Intn(h)}
		}
		return edge.Neighbors4()[rng.Intn(4)]
	case 2:
		return Cell{X: rng.Intn(4*w) - 2*w, Y: rng.Intn(4*h) - 2*h}
	}
	return Cell{X: rng.Intn(w), Y: rng.Intn(h)}
}

// checkAgainstMap drives a CellSet and a map[Cell]bool with the same
// random add/remove/has/reset sequence and requires identical answers.
func checkAgainstMap(t *testing.T, rng *rand.Rand, s *CellSet, w, h, ops int) {
	t.Helper()
	model := map[Cell]bool{}
	for op := 0; op < ops; op++ {
		c := randomProbe(rng, w, h)
		switch r := rng.Intn(20); {
		case r == 0:
			s.Reset()
			clear(model)
		case r < 8:
			s.Add(c)
			model[c] = true
		case r < 11:
			s.Remove(c)
			delete(model, c)
		default:
			if got, want := s.Has(c), model[c]; got != want {
				t.Fatalf("op %d: Has(%v) = %v, map says %v (gen %d)", op, c, got, want, s.gen)
			}
		}
	}
	// Every cell the model knows, and every cell on and around the
	// array, must agree at the end.
	for c, want := range model {
		if s.Has(c) != want {
			t.Fatalf("final: Has(%v) = %v, map says %v", c, !want, want)
		}
	}
	for y := -1; y <= h; y++ {
		for x := -1; x <= w; x++ {
			c := Cell{X: x, Y: y}
			if s.Has(c) != model[c] {
				t.Fatalf("final sweep: Has(%v) = %v, map says %v", c, s.Has(c), model[c])
			}
		}
	}
}

// TestCellSetMatchesMap is the property test for the dense set: on
// random arrays and random operation sequences it answers exactly like
// a map, off-array cells included.
func TestCellSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		w, h := 1+rng.Intn(14), 1+rng.Intn(32)
		checkAgainstMap(t, rng, NewCellSet(w, h), w, h, 2000)
	}
}

// TestCellSetGenerationWrap forces the generation counter past
// MaxUint32: the wrap must zero the stamp table so cells added in an old
// generation (whose stamps would alias the restarted counter) are gone.
func TestCellSetGenerationWrap(t *testing.T) {
	const w, h = 5, 4
	s := NewCellSet(w, h)
	// Stamp every cell with generation 1, the value the counter
	// restarts at after the wrap.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s.Add(Cell{X: x, Y: y})
		}
	}
	s.gen = math.MaxUint32 - 2
	s.Add(Cell{X: 1, Y: 1})
	for i := 0; i < 3; i++ {
		s.Reset()
	}
	if s.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", s.gen)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if s.Has(Cell{X: x, Y: y}) {
				t.Fatalf("cell (%d,%d) survived the wrap", x, y)
			}
		}
	}
	// And the set keeps matching a map across further wraps.
	rng := rand.New(rand.NewSource(2))
	s.gen = math.MaxUint32 - 5
	checkAgainstMap(t, rng, s, w, h, 5000)
}

// TestCellSetZeroValue pins the zero value: an empty set on a 0×0 array
// that holds every cell in its side list.
func TestCellSetZeroValue(t *testing.T) {
	var s CellSet
	c := Cell{X: 3, Y: 3}
	if s.Has(c) {
		t.Fatal("zero set has a member")
	}
	s.Add(c)
	s.Add(c)
	if !s.Has(c) || len(s.outside) != 1 {
		t.Fatalf("zero set Add: has=%v side=%d", s.Has(c), len(s.outside))
	}
	s.Reset()
	if s.Has(c) {
		t.Fatal("zero set kept a member across Reset")
	}
}

// Package grid provides the discrete geometry primitives shared by every
// layer of the fppc stack: electrode coordinates, 4-neighbourhoods,
// rectangles and distance metrics on the DMFB array.
//
// The coordinate convention follows the paper's figures: X grows to the
// right across columns, Y grows downward across rows. A 12x15 array has
// X in [0,12) and Y in [0,15).
package grid

import "fmt"

// Cell identifies one electrode position on the array.
type Cell struct {
	X, Y int
}

// String renders the cell as "(x,y)".
func (c Cell) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Add returns the cell translated by dx, dy.
func (c Cell) Add(dx, dy int) Cell { return Cell{c.X + dx, c.Y + dy} }

// Dir is one of the four cardinal movement directions, or None.
type Dir int

// The five possible single-cycle droplet motions.
const (
	None Dir = iota
	North
	South
	East
	West
)

var dirNames = [...]string{"none", "north", "south", "east", "west"}

// String returns the lowercase direction name.
func (d Dir) String() string {
	if d < None || d > West {
		return fmt.Sprintf("Dir(%d)", int(d))
	}
	return dirNames[d]
}

// Opposite returns the reverse direction; None is its own opposite.
func (d Dir) Opposite() Dir {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	return None
}

// Step returns the cell one step from c in direction d.
func (c Cell) Step(d Dir) Cell {
	switch d {
	case North:
		return Cell{c.X, c.Y - 1}
	case South:
		return Cell{c.X, c.Y + 1}
	case East:
		return Cell{c.X + 1, c.Y}
	case West:
		return Cell{c.X - 1, c.Y}
	}
	return c
}

// DirTo returns the direction of the single step from c to next, or
// (None, false) if next is not a 4-neighbour of c (or equals c).
func (c Cell) DirTo(next Cell) (Dir, bool) {
	switch {
	case next.X == c.X && next.Y == c.Y-1:
		return North, true
	case next.X == c.X && next.Y == c.Y+1:
		return South, true
	case next.X == c.X+1 && next.Y == c.Y:
		return East, true
	case next.X == c.X-1 && next.Y == c.Y:
		return West, true
	}
	return None, false
}

// Dirs lists the four cardinal directions in a fixed order.
var Dirs = [4]Dir{North, South, East, West}

// Neighbors4 returns the four cardinal neighbours of c in Dirs order.
// Callers must bounds-check against their array.
func (c Cell) Neighbors4() [4]Cell {
	return [4]Cell{c.Step(North), c.Step(South), c.Step(East), c.Step(West)}
}

// Neighbors8 returns the eight surrounding cells (cardinal + diagonal).
// The DMFB fluidic interference rules are defined on this neighbourhood.
func (c Cell) Neighbors8() [8]Cell {
	return [8]Cell{
		{c.X - 1, c.Y - 1}, {c.X, c.Y - 1}, {c.X + 1, c.Y - 1},
		{c.X - 1, c.Y}, {c.X + 1, c.Y},
		{c.X - 1, c.Y + 1}, {c.X, c.Y + 1}, {c.X + 1, c.Y + 1},
	}
}

// Manhattan returns the L1 distance between two cells.
func Manhattan(a, b Cell) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

// Chebyshev returns the L-infinity distance between two cells. Two distinct
// droplets must keep Chebyshev distance >= 2 to avoid accidental merging.
func Chebyshev(a, b Cell) int {
	dx, dy := abs(a.X-b.X), abs(a.Y-b.Y)
	if dx > dy {
		return dx
	}
	return dy
}

// Adjacent8 reports whether a and b are distinct cells within the 8-cell
// interference neighbourhood of each other.
func Adjacent8(a, b Cell) bool {
	return a != b && Chebyshev(a, b) <= 1
}

// Adjacent4 reports whether b is a cardinal neighbour of a.
func Adjacent4(a, b Cell) bool {
	return Manhattan(a, b) == 1
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Rect is a half-open axis-aligned rectangle of cells: X in [X0,X1),
// Y in [Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// RectAt builds a Rect from an origin cell and a width/height.
func RectAt(origin Cell, w, h int) Rect {
	return Rect{origin.X, origin.Y, origin.X + w, origin.Y + h}
}

// W returns the rectangle width in cells.
func (r Rect) W() int { return r.X1 - r.X0 }

// H returns the rectangle height in cells.
func (r Rect) H() int { return r.Y1 - r.Y0 }

// Area returns the number of cells covered (0 for empty/inverted rects).
func (r Rect) Area() int {
	if r.W() <= 0 || r.H() <= 0 {
		return 0
	}
	return r.W() * r.H()
}

// Contains reports whether c lies inside the rectangle.
func (r Rect) Contains(c Cell) bool {
	return c.X >= r.X0 && c.X < r.X1 && c.Y >= r.Y0 && c.Y < r.Y1
}

// Cells lists every cell of the rectangle in row-major order.
func (r Rect) Cells() []Cell {
	out := make([]Cell, 0, r.Area())
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			out = append(out, Cell{x, y})
		}
	}
	return out
}

// Expand grows the rectangle by n cells on every side. The DMFB
// interference region of a module is its footprint expanded by one.
func (r Rect) Expand(n int) Rect {
	return Rect{r.X0 - n, r.Y0 - n, r.X1 + n, r.Y1 + n}
}

// Intersects reports whether the two rectangles share at least one cell.
func (r Rect) Intersects(o Rect) bool {
	return r.X0 < o.X1 && o.X0 < r.X1 && r.Y0 < o.Y1 && o.Y0 < r.Y1
}

// String renders the rect as "[x0,y0 x1,y1)".
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %d,%d)", r.X0, r.Y0, r.X1, r.Y1)
}

// CellSet is a dense set of cells on a W×H array, indexed y*W+x, for
// replay loops that rebuild a set every cycle. Reset empties it in O(1)
// by bumping a generation stamp instead of clearing the table. Cells
// off the array are kept in a small side list, so the set answers
// exactly like a map[Cell]bool for any cell, including the out-of-bounds
// neighbours of edge cells.
//
// The zero value is an empty set on a 0×0 array; NewCellSet sizes it.
type CellSet struct {
	w, h    int
	gen     uint32   // current generation; 0 only in the zero value
	stamp   []uint32 // cell index -> generation that last added it
	outside []Cell   // members off the array, in insertion order
}

// NewCellSet returns an empty set over a w×h array.
func NewCellSet(w, h int) *CellSet {
	return &CellSet{w: w, h: h, gen: 1, stamp: make([]uint32, w*h)}
}

func (s *CellSet) index(c Cell) (int, bool) {
	if c.X < 0 || c.X >= s.w || c.Y < 0 || c.Y >= s.h {
		return 0, false
	}
	return c.Y*s.w + c.X, true
}

// Reset empties the set. When the generation counter wraps, the stamp
// table is zeroed once so no stale stamp can alias the new generation.
func (s *CellSet) Reset() {
	s.gen++
	if s.gen == 0 {
		clear(s.stamp)
		s.gen = 1
	}
	s.outside = s.outside[:0]
}

// Has reports whether c is in the set.
func (s *CellSet) Has(c Cell) bool {
	if i, ok := s.index(c); ok {
		return s.stamp[i] == s.gen
	}
	for _, o := range s.outside {
		if o == c {
			return true
		}
	}
	return false
}

// Add inserts c.
func (s *CellSet) Add(c Cell) {
	if i, ok := s.index(c); ok {
		s.stamp[i] = s.gen
		return
	}
	if !s.Has(c) {
		s.outside = append(s.outside, c)
	}
}

// Remove deletes c.
func (s *CellSet) Remove(c Cell) {
	if i, ok := s.index(c); ok {
		s.stamp[i] = 0
		return
	}
	for i, o := range s.outside {
		if o == c {
			s.outside = append(s.outside[:i], s.outside[i+1:]...)
			return
		}
	}
}

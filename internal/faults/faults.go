// Package faults models hardware defects on a DMFB chip and drives the
// fault-aware parts of the synthesis flow.
//
// Three defect classes are modeled, following the electrode-degradation
// literature the paper's reliability discussion leans on:
//
//   - stuck-open: the electrode never energizes, no matter what its
//     control pin commands (dielectric breakdown, open trace);
//   - stuck-closed: the electrode is always energized, even when its pin
//     is idle (shorted driver), spuriously pulling nearby droplets;
//   - dead pin driver: one control pin's driver has failed, so every
//     electrode wired to that pin refuses actuation — on the FPPC
//     architecture a single dead pin silences an entire bus phase or
//     mixer-loop position across the whole chip.
//
// A *Set is the unit the rest of the pipeline consumes. It implements
// three structural interfaces declared by downstream packages (none of
// which import faults):
//
//   - sim.Injector — perturbs the energized-electrode frame during
//     program replay, so the electrode-level simulator executes what the
//     broken chip would actually do;
//   - oracle.FaultInjector — same perturbation plus fault disclosure, so
//     the oracle can flag refused actuations and spurious energizations;
//   - core.FaultModel — restricts a chip before synthesis (disabling
//     modules and pruning reservoir attach points) and blocks routing
//     through unusable cells, for fault-aware resynthesis.
//
// campaign.go builds a chaos harness on top: randomized fault sets swept
// over the benchmark suite, with each run classified by whether the flow
// masked, detected-and-resynthesized around, or missed the defect.
package faults

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"fppc/internal/arch"
	"fppc/internal/grid"
	"fppc/internal/oracle"
	"fppc/internal/pins"
	"fppc/internal/telemetry"
)

// Kind classifies one hardware fault.
type Kind int

// The modeled defect classes.
const (
	// StuckOpen marks an electrode that never energizes.
	StuckOpen Kind = iota
	// StuckClosed marks an electrode that is always energized.
	StuckClosed
	// DeadPin marks a failed pin driver: every electrode on the pin
	// refuses actuation.
	DeadPin
)

func (k Kind) String() string {
	switch k {
	case StuckOpen:
		return "stuck-open"
	case StuckClosed:
		return "stuck-closed"
	case DeadPin:
		return "dead-pin"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one declared hardware defect. StuckOpen and StuckClosed use
// Cell; DeadPin uses Pin.
type Fault struct {
	Kind Kind
	Cell grid.Cell
	Pin  int
}

func (f Fault) String() string {
	if f.Kind == DeadPin {
		return fmt.Sprintf("dead#%d", f.Pin)
	}
	name := "open"
	if f.Kind == StuckClosed {
		name = "closed"
	}
	return fmt.Sprintf("%s@%d,%d", name, f.Cell.X, f.Cell.Y)
}

// ConflictError reports a cell declared both stuck-open and stuck-closed
// — physically contradictory, so the set is rejected at construction.
type ConflictError struct {
	Cell grid.Cell
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("faults: cell %v declared both stuck-open and stuck-closed", e.Cell)
}

// Set is an immutable collection of hardware faults on one chip. The
// zero value is not usable; build with New, ParseSpec, FromWear or
// RandomSet. A nil *Set behaves as "no faults" for Len.
type Set struct {
	list   []Fault
	open   map[grid.Cell]bool
	closed map[grid.Cell]bool
	dead   map[int]bool
}

// New builds a fault set, deduplicating identical declarations. A cell
// declared both stuck-open and stuck-closed yields a *ConflictError.
func New(faults ...Fault) (*Set, error) {
	s := &Set{
		open:   make(map[grid.Cell]bool),
		closed: make(map[grid.Cell]bool),
		dead:   make(map[int]bool),
	}
	for _, f := range faults {
		switch f.Kind {
		case StuckOpen:
			if s.closed[f.Cell] {
				return nil, &ConflictError{Cell: f.Cell}
			}
			if s.open[f.Cell] {
				continue
			}
			s.open[f.Cell] = true
		case StuckClosed:
			if s.open[f.Cell] {
				return nil, &ConflictError{Cell: f.Cell}
			}
			if s.closed[f.Cell] {
				continue
			}
			s.closed[f.Cell] = true
		case DeadPin:
			if f.Pin <= 0 {
				return nil, fmt.Errorf("faults: dead pin %d: pins are numbered from 1", f.Pin)
			}
			if s.dead[f.Pin] {
				continue
			}
			s.dead[f.Pin] = true
		default:
			return nil, fmt.Errorf("faults: unknown fault kind %v", f.Kind)
		}
		s.list = append(s.list, f)
	}
	return s, nil
}

// Len returns the number of distinct faults. Nil-safe.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.list)
}

// Faults returns a copy of the declared faults in canonical order:
// stuck-open by (y,x), then stuck-closed by (y,x), then dead pins
// ascending.
func (s *Set) Faults() []Fault {
	if s == nil {
		return nil
	}
	out := make([]Fault, len(s.list))
	copy(out, s.list)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Kind == DeadPin {
			return a.Pin < b.Pin
		}
		if a.Cell.Y != b.Cell.Y {
			return a.Cell.Y < b.Cell.Y
		}
		return a.Cell.X < b.Cell.X
	})
	return out
}

// String renders the set in canonical spec form, e.g.
// "open@3,4;closed@7,2;dead#5". ParseSpec inverts it. The empty set
// renders as "".
func (s *Set) String() string {
	fs := s.Faults()
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return strings.Join(parts, ";")
}

// ParseSpec parses the ";"-separated fault spec syntax used by the CLIs
// and the service: "open@x,y", "closed@x,y", "dead#pin". Whitespace
// around entries is ignored; an empty spec yields an empty set.
func ParseSpec(spec string) (*Set, error) {
	var fs []Fault
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := parseFault(part)
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	return New(fs...)
}

func parseFault(s string) (Fault, error) {
	if rest, ok := strings.CutPrefix(s, "dead#"); ok {
		pin, err := strconv.Atoi(rest)
		if err != nil || pin <= 0 {
			return Fault{}, fmt.Errorf("faults: bad dead-pin spec %q (want dead#<pin>)", s)
		}
		return Fault{Kind: DeadPin, Pin: pin}, nil
	}
	kind := StuckOpen
	rest, ok := strings.CutPrefix(s, "open@")
	if !ok {
		if rest, ok = strings.CutPrefix(s, "closed@"); !ok {
			return Fault{}, fmt.Errorf("faults: bad fault spec %q (want open@x,y, closed@x,y or dead#pin)", s)
		}
		kind = StuckClosed
	}
	xs, ys, ok := strings.Cut(rest, ",")
	if !ok {
		return Fault{}, fmt.Errorf("faults: bad cell in fault spec %q (want x,y)", s)
	}
	x, errX := strconv.Atoi(xs)
	y, errY := strconv.Atoi(ys)
	if errX != nil || errY != nil {
		return Fault{}, fmt.Errorf("faults: bad cell in fault spec %q (want x,y)", s)
	}
	return Fault{Kind: kind, Cell: grid.Cell{X: x, Y: y}}, nil
}

// FromWear derives a degradation fault set from execution telemetry:
// every electrode whose duty cycle reached threshold is declared
// stuck-open, modeling dielectric breakdown of the most-worn electrodes.
// This is the bridge from the telemetry layer's wear tracking to
// fault-aware resynthesis: snapshot a long run, derive the wear faults,
// recompile around them.
func FromWear(snap *telemetry.Snapshot, threshold float64) (*Set, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("faults: wear threshold %v must be positive", threshold)
	}
	var fs []Fault
	for _, e := range snap.Electrodes {
		if e.Duty >= threshold {
			fs = append(fs, Fault{Kind: StuckOpen, Cell: grid.Cell{X: e.X, Y: e.Y}})
		}
	}
	return New(fs...)
}

// RandomSet draws n distinct random faults on the chip's electrodes:
// stuck-open or stuck-closed cells, plus dead pin drivers when allowDead
// is set. Deterministic for a given rng state.
func RandomSet(rng *rand.Rand, chip *arch.Chip, n int, allowDead bool) (*Set, error) {
	els := chip.Electrodes()
	if len(els) == 0 {
		return nil, fmt.Errorf("faults: chip %s has no electrodes", chip.Name)
	}
	var fs []Fault
	usedCell := make(map[grid.Cell]bool)
	usedPin := make(map[int]bool)
	for len(fs) < n {
		kinds := 2
		if allowDead {
			kinds = 3
		}
		switch Kind(rng.Intn(kinds)) {
		case DeadPin:
			pin := 1 + rng.Intn(chip.PinCount())
			if usedPin[pin] {
				continue
			}
			usedPin[pin] = true
			fs = append(fs, Fault{Kind: DeadPin, Pin: pin})
		case StuckOpen, StuckClosed:
			e := els[rng.Intn(len(els))]
			if usedCell[e.Cell] {
				continue
			}
			usedCell[e.Cell] = true
			kind := StuckOpen
			if rng.Intn(2) == 1 {
				kind = StuckClosed
			}
			fs = append(fs, Fault{Kind: kind, Cell: e.Cell})
		}
	}
	return New(fs...)
}

// dead reports whether the electrode's pin driver has failed.
func (s *Set) deadCell(chip *arch.Chip, c grid.Cell) bool {
	e := chip.ElectrodeAt(c)
	return e != nil && s.dead[e.Pin]
}

// Transform perturbs the energized-electrode set, in place, to what the
// faulted hardware actually does: stuck-open cells and cells on dead
// pins never energize; stuck-closed cells always do. Implements
// sim.Injector and part of oracle.FaultInjector; it does not allocate.
func (s *Set) Transform(chip *arch.Chip, active *grid.CellSet) {
	for c := range s.open {
		active.Remove(c)
	}
	for pin := range s.dead {
		for _, c := range chip.PinCells(pin) {
			active.Remove(c)
		}
	}
	for c := range s.closed {
		if chip.ElectrodeAt(c) != nil {
			active.Add(c)
		}
	}
}

// Refused appends to dst the electrodes the activation commands that
// cannot energize: every cell of a driven dead pin, and stuck-open cells
// whose pin is driven — once per time the frame lists the pin. Results
// are in (y,x) order for determinism. It walks the faults rather than
// the driven pins' electrodes, so a frame costs a few comparisons per
// fault and no allocation once dst has grown.
func (s *Set) Refused(chip *arch.Chip, act pins.Activation, dst []oracle.FaultPoint) []oracle.FaultPoint {
	start := len(dst)
	for pin := range s.dead {
		for n := count(act, pin); n > 0; n-- {
			for _, c := range chip.PinCells(pin) {
				dst = append(dst, oracle.FaultPoint{Cell: c, Pin: pin})
			}
		}
	}
	for c := range s.open {
		e := chip.ElectrodeAt(c)
		if e == nil || s.dead[e.Pin] {
			continue // unwired, or already reported with its dead pin
		}
		for n := count(act, e.Pin); n > 0; n-- {
			dst = append(dst, oracle.FaultPoint{Cell: c, Pin: e.Pin})
		}
	}
	sortPoints(dst[start:])
	return dst
}

// count reports how many times the frame lists the pin.
func count(act pins.Activation, pin int) int {
	n := 0
	for _, p := range act {
		if p == pin {
			n++
		}
	}
	return n
}

// StuckOn reports the stuck-closed electrodes present on the chip, in
// (y,x) order.
func (s *Set) StuckOn(chip *arch.Chip) []oracle.FaultPoint {
	var out []oracle.FaultPoint
	for c := range s.closed {
		if e := chip.ElectrodeAt(c); e != nil {
			out = append(out, oracle.FaultPoint{Cell: c, Pin: e.Pin})
		}
	}
	sortPoints(out)
	return out
}

func sortPoints(ps []oracle.FaultPoint) {
	slices.SortFunc(ps, func(a, b oracle.FaultPoint) int {
		if a.Cell.Y != b.Cell.Y {
			return cmp.Compare(a.Cell.Y, b.Cell.Y)
		}
		return cmp.Compare(a.Cell.X, b.Cell.X)
	})
}

// unusable reports whether a droplet may not rest on or be commanded at
// the cell: the electrode itself is faulted (stuck-open, stuck-closed,
// or on a dead pin), or it is a cardinal neighbor of a stuck-closed
// electrode — the always-energized cell would pull any droplet placed
// beside it off its commanded position. The pull radius is cardinal
// because electrowetting force needs edge overlap; diagonal neighbors
// only matter for droplet-droplet merging, and a stuck-closed electrode
// is not a droplet.
func (s *Set) unusable(chip *arch.Chip, c grid.Cell) bool {
	if s.open[c] || s.closed[c] || s.deadCell(chip, c) {
		return true
	}
	for _, n := range c.Neighbors4() {
		if s.closed[n] {
			return true
		}
	}
	return false
}

// Restrict validates the fault set against the chip and degrades the
// chip in place for fault-aware synthesis: modules containing an
// unusable cell are disabled, and reservoir attach points on unusable
// cells are pruned. Implements core.FaultModel; core calls it after
// chip construction and before port placement.
func (s *Set) Restrict(chip *arch.Chip) error {
	for _, f := range s.Faults() {
		switch f.Kind {
		case StuckOpen, StuckClosed:
			if chip.ElectrodeAt(f.Cell) == nil {
				return fmt.Errorf("faults: %v: no electrode at %v on %s", f, f.Cell, chip.Name)
			}
		case DeadPin:
			if f.Pin > chip.PinCount() {
				return fmt.Errorf("faults: dead pin %d: %s has pins 1..%d", f.Pin, chip.Name, chip.PinCount())
			}
		}
	}
	for _, m := range chip.Modules() {
		if s.moduleHit(chip, m) {
			m.Disabled = true
		}
	}
	chip.FilterAttach(func(c grid.Cell) bool { return !s.unusable(chip, c) })
	return nil
}

// moduleHit reports whether any cell the module needs is unusable: its
// work-cell footprint, plus the Hold/IO/Bus cells on FPPC module kinds.
// DAWork modules leave Hold/IO/Bus zero-valued, so only the footprint
// counts there.
func (s *Set) moduleHit(chip *arch.Chip, m *arch.Module) bool {
	for _, c := range m.Rect.Cells() {
		if s.unusable(chip, c) {
			return true
		}
	}
	if m.Kind == arch.Mix || m.Kind == arch.SSD {
		for _, c := range []grid.Cell{m.Hold, m.IO, m.Bus} {
			if s.unusable(chip, c) {
				return true
			}
		}
	}
	return false
}

// Blocked reports whether the router must keep droplets off the cell.
// Implements core.FaultModel.
func (s *Set) Blocked(chip *arch.Chip, c grid.Cell) bool {
	return s.unusable(chip, c)
}

// IsConflict reports whether err is (or wraps) a *ConflictError.
func IsConflict(err error) bool {
	var ce *ConflictError
	return errors.As(err, &ce)
}

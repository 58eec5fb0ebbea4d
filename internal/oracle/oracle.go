// Package oracle is an independent electrode-level verifier for
// compiled pin-activation programs. It re-derives droplet positions and
// fluidic-constraint violations directly from the per-cycle pin frames
// and the chip's wiring table, sharing no position-tracking code with
// internal/sim, and then checks end-to-end invariants against the assay
// DAG: no unintended merges, no droplet loss, every operation
// completed, and conservation of dispensed volume.
//
// The simulator (internal/sim) answers "what happens when this program
// runs"; the oracle answers "is what happened correct" — and because
// the two are implemented independently, their agreement on a program
// is evidence rather than bookkeeping. The harness in this package
// cross-checks them on every compiled benchmark, on randomized
// pipeline fuzz cases, and against deliberately corrupted frame
// streams (mutation mode), where the oracle must flag the fault.
package oracle

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"strconv"

	"fppc/internal/arch"
	"fppc/internal/dag"
	"fppc/internal/grid"
	"fppc/internal/pins"
	"fppc/internal/router"
	"fppc/internal/telemetry"
)

// ViolationKind classifies what the oracle observed going wrong.
type ViolationKind int

// Electrode-level violation kinds (found during frame replay) and
// assay-level kinds (found when checking the finished run against the
// DAG's expectations).
const (
	// DropletLost: no activated electrode holds or pulls the droplet;
	// on real hardware it drifts unpredictably.
	DropletLost ViolationKind = iota
	// DropletTorn: activated electrodes pull one droplet in
	// irreconcilable directions.
	DropletTorn
	// Overpull: more than two electrodes energized in a droplet's
	// reach, leaving its motion undefined.
	Overpull
	// SpuriousActivation: a pin is driven high although none of its
	// electrodes is near any droplet — actuation that cannot be doing
	// work, the signature of a corrupted or mis-addressed frame.
	SpuriousActivation
	// DispenseConflict: a dispense lands inside the interference range
	// of a droplet already on the array.
	DispenseConflict
	// OutputMiss: an output event fires with no droplet on the port.
	OutputMiss
	// EventOverrun: reservoir events remain after the program's last
	// cycle.
	EventOverrun
	// OpCountMismatch: dispense/merge/split/output totals disagree with
	// the assay DAG (assay-level).
	OpCountMismatch
	// ResidualDroplet: droplets remain on the array after the program
	// ends (assay-level).
	ResidualDroplet
	// VolumeLeak: dispensed volume does not equal collected volume
	// (assay-level).
	VolumeLeak
	// RefusedActuation: a driven pin reaches an electrode that a declared
	// hardware fault (stuck-open cell or dead pin driver) prevents from
	// energizing. Only raised when Options.Faults is set; this is the
	// invariant that catches faults the droplet physics masks.
	RefusedActuation
)

var violationNames = [...]string{
	"droplet-lost", "droplet-torn", "overpull", "spurious-activation",
	"dispense-conflict", "output-miss", "event-overrun",
	"op-count-mismatch", "residual-droplet", "volume-leak",
	"refused-actuation",
}

// String returns the kind's kebab-case name.
func (k ViolationKind) String() string {
	if k < DropletLost || int(k) >= len(violationNames) {
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
	return violationNames[k]
}

// Violation is one oracle finding. Cycle is -1 for assay-level
// findings, Droplet is -1 when no specific droplet is implicated.
type Violation struct {
	Kind    ViolationKind
	Cycle   int
	Droplet int
	Cell    grid.Cell
	Pin     int
	Msg     string
}

func (v Violation) String() string {
	if v.Cycle < 0 {
		return fmt.Sprintf("oracle: %v: %s", v.Kind, v.Msg)
	}
	return fmt.Sprintf("oracle: cycle %d: %v: %s", v.Cycle, v.Kind, v.Msg)
}

// Report is the oracle's account of one program replay.
type Report struct {
	Cycles    int
	Dispenses int
	Outputs   int
	Merges    int
	Splits    int

	VolumeIn   float64
	VolumeOut  float64
	VolumeLeft float64

	// RemainingDroplets counts bodies still on the array at the end.
	RemainingDroplets int

	// FootprintHash digests every cycle's droplet footprints (positions
	// and volumes, droplet IDs excluded). Two replays with equal hashes
	// executed the same fluidic behavior; mutation mode uses it to catch
	// corruptions that perturb a droplet without breaking an invariant
	// (e.g. a transient stretch that heals the next cycle).
	FootprintHash string

	Violations []Violation

	// Truncated reports that replay stopped early because the violation
	// budget (Options.MaxViolations) was exhausted; counts cover only
	// the cycles replayed.
	Truncated bool
}

// Ok reports a clean run.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Err returns the first violation as an error, or nil.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("%s", r.Violations[0].String())
}

// Options tune the oracle.
type Options struct {
	// MaxViolations stops replay once this many violations accumulate
	// (0 = 32). Replay past the first violation is best-effort: once
	// physics has been violated the derived positions are suspect.
	MaxViolations int
	// DisableSpuriousCheck turns off the spurious-activation invariant
	// (useful when verifying hand-written programs that idle pins on
	// purpose).
	DisableSpuriousCheck bool
	// Collector, when non-nil, receives chip-level execution telemetry
	// from the replay (internal/telemetry). Because the oracle derives
	// positions independently of the simulator, a snapshot collected
	// here cross-checks one collected by sim.RunCollected.
	Collector *telemetry.Collector
	// Faults declares hardware defects to inject into the replay: the
	// energized set is transformed each cycle (stuck-open cells refuse,
	// stuck-closed cells energize spuriously) and fault-specific
	// invariants run. The canonical implementation is faults.Set.
	Faults FaultInjector
	// KnownFaults switches the fault invariants from detection to
	// re-verification. With it false (detection, the default) every
	// commanded actuation of a refusing electrode and every stuck-closed
	// electrode is flagged — the replay asks "would a controller notice
	// this chip is broken?". With it true the program is expected to have
	// been resynthesized around the declared faults: refused actuations
	// are flagged only when they would have moved fluid (the faulted cell
	// borders a droplet), because shared FPPC pins make harmless commands
	// to faulted electrodes unavoidable, and stuck-closed cells are left
	// to the droplet physics, which flags them the moment a droplet
	// strays into their reach.
	KnownFaults bool
}

// FaultPoint locates one faulted electrode implicated in an injection.
type FaultPoint struct {
	Cell grid.Cell
	Pin  int
}

// FaultInjector is the oracle's view of a hardware fault set. Transform
// rewrites a cycle's energized set, in place, to what the broken chip
// physically does; Refused appends to dst the electrodes a frame
// commands that cannot energize (stuck-open cells, dead pin drivers),
// in (y,x) order; StuckOn lists the electrodes that are energized no
// matter what is driven, in (y,x) order. The replay calls StuckOn once
// and the other two every cycle, so they should not allocate.
type FaultInjector interface {
	Transform(chip *arch.Chip, active *grid.CellSet)
	Refused(chip *arch.Chip, act pins.Activation, dst []FaultPoint) []FaultPoint
	StuckOn(chip *arch.Chip) []FaultPoint
}

// blob is the oracle's independent droplet model: one or two occupied
// cells plus the volume ledger.
type blob struct {
	id     int
	cells  []grid.Cell
	volume float64
	solute map[string]float64
}

func (b *blob) covers(c grid.Cell) bool {
	for _, bc := range b.cells {
		if bc == c {
			return true
		}
	}
	return false
}

// verifier carries replay state. Everything rebuilt per cycle lives in
// dense per-chip tables or reused scratch, so the steady-state replay
// loop does not allocate.
type verifier struct {
	chip     *arch.Chip
	pinCells [][]grid.Cell // pin id -> electrode cells, rebuilt from the wiring
	blobs    []*blob
	spare    []*blob // step's next-generation list, swapped with blobs
	nextID   int
	rep      *Report
	opts     Options
	fp       hash.Hash // running digest of per-cycle footprints

	// justify collects the cells that legitimize activations this
	// cycle: every live droplet cell plus cells vacated by this cycle's
	// output events. active is the cycle's energized set.
	justify *grid.CellSet
	active  *grid.CellSet

	// reach scratch: the energized candidates found so far.
	pulls []grid.Cell

	// hashFootprint scratch: one blob's sorted cells, the cycle's blob
	// renderings back to back with each one's [start, end) in fpBuf,
	// and the cycle's digest input.
	cells   []grid.Cell
	fpBuf   []byte
	fpSpans [][2]int
	fpIn    []byte

	// refused is Refused's scratch; stuckOn holds the injector's
	// stuck-closed electrodes, fixed for the replay.
	refused []FaultPoint
	stuckOn []FaultPoint

	// refusedSeen/stuckSeen deduplicate fault findings: each faulted
	// electrode is reported at most once per replay, so a dead bus-phase
	// pin does not exhaust the violation budget by itself.
	refusedSeen *grid.CellSet
	stuckSeen   *grid.CellSet
}

// Verify replays the program's pin frames on the chip and returns the
// oracle's report. It never shares state with the simulator: active
// electrodes are re-derived from the chip's electrode table and droplet
// motion is re-computed from scratch each cycle.
func Verify(chip *arch.Chip, prog *pins.Program, events []router.Event, opts Options) *Report {
	if opts.MaxViolations <= 0 {
		opts.MaxViolations = 32
	}
	v := &verifier{
		chip: chip, rep: &Report{}, opts: opts, fp: sha256.New(),
		justify: grid.NewCellSet(chip.W, chip.H),
		active:  grid.NewCellSet(chip.W, chip.H),
	}
	v.buildPinMap()
	if opts.Faults != nil {
		v.refusedSeen = grid.NewCellSet(chip.W, chip.H)
		v.stuckSeen = grid.NewCellSet(chip.W, chip.H)
		if !opts.KnownFaults {
			v.stuckOn = opts.Faults.StuckOn(chip)
		}
	}
	opts.Collector.BindChip(chip)
	evIdx := 0
	cyc := 0
	for ; cyc < prog.Len(); cyc++ {
		v.justify.Reset()
		for evIdx < len(events) && events[evIdx].Cycle == cyc {
			v.applyEvent(cyc, events[evIdx])
			evIdx++
		}
		for _, b := range v.blobs {
			for _, c := range b.cells {
				v.justify.Add(c)
			}
		}
		act := prog.Cycle(cyc)
		v.activeCells(cyc, act)
		if !opts.DisableSpuriousCheck {
			v.checkSpurious(cyc, act)
		}
		if opts.Faults != nil {
			v.injectFaults(cyc, act)
		}
		opts.Collector.Frame(act)
		v.step(cyc)
		v.mergePass(cyc)
		if opts.Collector != nil {
			for _, b := range v.blobs {
				opts.Collector.Occupy(b.id, b.cells)
			}
		}
		v.hashFootprint(cyc)
		if len(v.rep.Violations) >= opts.MaxViolations {
			v.rep.Truncated = true
			cyc++
			break
		}
	}
	if evIdx != len(events) && !v.rep.Truncated {
		v.flag(Violation{Kind: EventOverrun, Cycle: prog.Len(), Droplet: -1,
			Msg: fmt.Sprintf("%d reservoir events beyond the program's end", len(events)-evIdx)})
	}
	v.rep.Cycles = cyc
	v.rep.RemainingDroplets = len(v.blobs)
	for _, b := range v.blobs {
		v.rep.VolumeLeft += b.volume
	}
	v.rep.FootprintHash = hex.EncodeToString(v.fp.Sum(nil))
	return v.rep
}

// hashFootprint folds this cycle's droplet footprints into the running
// digest, ID-independently: each blob renders as its cells sorted by
// (y,x) plus its volume, and the renderings are hashed in byte order.
// The digest input for a cycle is
//
//	c<cycle>:<blob>;<blob>;...
//
// with each blob rendered as "[(x,y) (x,y)]@<volume>", the volume in
// %.9g form — the bytes fmt's "%v@%.9g" produces for a []grid.Cell and
// a float64, which earlier releases hashed, so digests stay comparable
// across versions. The renderings go into reused buffers; nothing is
// allocated in the steady state.
func (v *verifier) hashFootprint(cyc int) {
	buf, spans := v.fpBuf[:0], v.fpSpans[:0]
	for _, b := range v.blobs {
		v.cells = append(v.cells[:0], b.cells...)
		sortCells(v.cells)
		start := len(buf)
		buf = appendFootprint(buf, v.cells, b.volume)
		spans = append(spans, [2]int{start, len(buf)})
	}
	slices.SortFunc(spans, func(a, b [2]int) int {
		return bytes.Compare(buf[a[0]:a[1]], buf[b[0]:b[1]])
	})
	in := append(v.fpIn[:0], 'c')
	in = strconv.AppendInt(in, int64(cyc), 10)
	in = append(in, ':')
	for _, sp := range spans {
		in = append(in, buf[sp[0]:sp[1]]...)
		in = append(in, ';')
	}
	v.fp.Write(in)
	v.fpBuf, v.fpSpans, v.fpIn = buf, spans, in
}

// sortCells orders a footprint by (y,x).
func sortCells(cells []grid.Cell) {
	slices.SortFunc(cells, func(a, b grid.Cell) int {
		if a.Y != b.Y {
			return cmp.Compare(a.Y, b.Y)
		}
		return cmp.Compare(a.X, b.X)
	})
}

// appendFootprint appends one blob's digest rendering: the cells as
// "[(x,y) (x,y)]", then '@' and the volume in %.9g form.
func appendFootprint(dst []byte, cells []grid.Cell, volume float64) []byte {
	dst = append(dst, '[')
	for i, c := range cells {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, '(')
		dst = strconv.AppendInt(dst, int64(c.X), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(c.Y), 10)
		dst = append(dst, ')')
	}
	dst = append(dst, ']', '@')
	return strconv.AppendFloat(dst, volume, 'g', 9, 64)
}

// buildPinMap derives pin -> cells from the electrode table, on purpose
// not reusing arch.Chip.PinCells or pins.ActiveCells: the oracle trusts
// only the wiring description.
func (v *verifier) buildPinMap() {
	v.pinCells = make([][]grid.Cell, v.chip.PinCount()+1)
	for _, e := range v.chip.Electrodes() {
		if e.Pin > 0 && e.Pin < len(v.pinCells) {
			v.pinCells[e.Pin] = append(v.pinCells[e.Pin], e.Cell)
		}
	}
}

func (v *verifier) flag(viol Violation) {
	v.rep.Violations = append(v.rep.Violations, viol)
}

func (v *verifier) applyEvent(cyc int, ev router.Event) {
	switch ev.Kind {
	case router.EvDispense:
		for _, b := range v.blobs {
			for _, c := range b.cells {
				if grid.Chebyshev(c, ev.Cell) <= 1 {
					v.flag(Violation{Kind: DispenseConflict, Cycle: cyc, Droplet: b.id, Cell: ev.Cell,
						Msg: fmt.Sprintf("dispense at %v inside droplet %d's interference range", ev.Cell, b.id)})
				}
			}
		}
		v.blobs = append(v.blobs, &blob{
			id: v.nextID, cells: append(make([]grid.Cell, 0, 2), ev.Cell), volume: 1,
			solute: map[string]float64{ev.Fluid: 1},
		})
		v.nextID++
		v.rep.Dispenses++
		v.rep.VolumeIn++
	case router.EvOutput:
		for i, b := range v.blobs {
			if b.covers(ev.Cell) {
				v.rep.Outputs++
				v.rep.VolumeOut += b.volume
				for _, c := range b.cells {
					v.justify.Add(c) // port actuation this cycle is not spurious
				}
				v.blobs = append(v.blobs[:i], v.blobs[i+1:]...)
				return
			}
		}
		v.flag(Violation{Kind: OutputMiss, Cycle: cyc, Droplet: -1, Cell: ev.Cell,
			Msg: fmt.Sprintf("output event at %v with no droplet on the port", ev.Cell)})
	default:
		v.flag(Violation{Kind: EventOverrun, Cycle: cyc, Droplet: -1, Cell: ev.Cell,
			Msg: fmt.Sprintf("unknown reservoir event kind %d", int(ev.Kind))})
	}
}

// activeCells expands the frame's pin list into the energized electrode
// set (v.active) using the oracle's own wiring map.
func (v *verifier) activeCells(cyc int, act pins.Activation) {
	v.active.Reset()
	for _, pin := range act {
		if pin <= 0 || pin >= len(v.pinCells) {
			v.flag(Violation{Kind: SpuriousActivation, Cycle: cyc, Droplet: -1, Pin: pin,
				Msg: fmt.Sprintf("pin %d outside the chip's [1,%d] range", pin, len(v.pinCells)-1)})
			continue
		}
		for _, c := range v.pinCells[pin] {
			v.active.Add(c)
		}
	}
}

// checkSpurious flags pins whose electrodes are all out of reach of
// every droplet: energy spent where no fluid can respond. Legitimate
// shared-pin programs always have at least one justified electrode per
// driven pin (that is what the activation is for); a corrupted frame
// usually does not.
func (v *verifier) checkSpurious(cyc int, act pins.Activation) {
	for _, pin := range act {
		if pin <= 0 || pin >= len(v.pinCells) {
			continue // already flagged by activeCells
		}
		justified := false
	cells:
		for _, c := range v.pinCells[pin] {
			// On a justify cell or cardinally adjacent to one: only there
			// can the activation move fluid (diagonal neighbours exert no
			// pull), so anything farther is wasted actuation.
			if v.justify.Has(c) {
				justified = true
				break
			}
			for _, n := range c.Neighbors4() {
				if v.justify.Has(n) {
					justified = true
					break cells
				}
			}
		}
		if !justified {
			v.flag(Violation{Kind: SpuriousActivation, Cycle: cyc, Droplet: -1, Pin: pin,
				Msg: fmt.Sprintf("pin %d driven with no droplet near any of its %d electrodes", pin, len(v.pinCells[pin]))})
		}
	}
}

// injectFaults applies the declared hardware faults to this cycle's
// energized set and runs the fault invariants. In detection mode
// (KnownFaults false) any command to a refusing electrode and any
// stuck-closed electrode energizing while its pin is idle is flagged; in
// known-faults mode only refused actuations that border a droplet are —
// on a correctly resynthesized program neither occurs. Either way the
// active set is rewritten to the broken chip's physical truth before the
// droplet physics runs, so physics-level consequences (lost droplets,
// overpulls near a stuck-closed cell) surface through the ordinary
// invariants.
func (v *verifier) injectFaults(cyc int, act pins.Activation) {
	v.refused = v.opts.Faults.Refused(v.chip, act, v.refused[:0])
	for _, p := range v.refused {
		if v.refusedSeen.Has(p.Cell) {
			continue
		}
		if v.opts.KnownFaults && !v.nearJustified(p.Cell) {
			continue
		}
		v.refusedSeen.Add(p.Cell)
		v.flag(Violation{Kind: RefusedActuation, Cycle: cyc, Droplet: -1, Cell: p.Cell, Pin: p.Pin,
			Msg: fmt.Sprintf("pin %d driven but electrode %v cannot energize (stuck-open or dead driver)", p.Pin, p.Cell)})
	}
	for _, p := range v.stuckOn { // empty in known-faults mode
		if v.stuckSeen.Has(p.Cell) || slices.Contains(act, p.Pin) {
			continue
		}
		v.stuckSeen.Add(p.Cell)
		v.flag(Violation{Kind: SpuriousActivation, Cycle: cyc, Droplet: -1, Cell: p.Cell, Pin: p.Pin,
			Msg: fmt.Sprintf("electrode %v energized while pin %d is idle: stuck-closed", p.Cell, p.Pin)})
	}
	v.opts.Faults.Transform(v.chip, v.active)
}

// nearJustified reports whether the cell is on, or cardinally adjacent
// to, a cell that legitimizes actuation this cycle — the only positions
// where a refusing electrode actually costs the program fluid motion.
func (v *verifier) nearJustified(c grid.Cell) bool {
	if v.justify.Has(c) {
		return true
	}
	for _, n := range c.Neighbors4() {
		if v.justify.Has(n) {
			return true
		}
	}
	return false
}

// step recomputes every droplet's position from the energized set.
func (v *verifier) step(cyc int) {
	next := v.spare[:0]
	for _, b := range v.blobs {
		moved, extra := v.advance(cyc, b)
		if moved != nil {
			next = append(next, moved)
		}
		if extra != nil {
			next = append(next, extra)
			v.rep.Splits++
		}
	}
	// Swap generations: the old list becomes next cycle's scratch.
	clear(v.blobs)
	v.blobs, v.spare = next, v.blobs[:0]
}

// reach collects the energized electrodes that can act on the blob: its
// own cells plus cardinal neighbours, deduplicated, in deterministic
// order (own cells first). A candidate met twice is either already in
// the result or not energized, so deduplicating the result alone gives
// the same list. The result is scratch, valid until the next call.
func (v *verifier) reach(b *blob) []grid.Cell {
	out := v.pulls[:0]
	add := func(c grid.Cell) {
		if v.active.Has(c) && !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	for _, c := range b.cells {
		add(c)
	}
	for _, c := range b.cells {
		for _, n := range c.Neighbors4() {
			add(n)
		}
	}
	v.pulls = out
	return out
}

// advance derives the blob's next footprint. A nil first return drops
// the blob (after flagging); a non-nil second return is a split half.
func (v *verifier) advance(cyc int, b *blob) (*blob, *blob) {
	pulls := v.reach(b)
	switch {
	case len(pulls) == 0:
		v.flag(Violation{Kind: DropletLost, Cycle: cyc, Droplet: b.id, Cell: b.cells[0],
			Msg: fmt.Sprintf("droplet %d at %v has no energized electrode in reach", b.id, b.cells[0])})
		return nil, nil
	case len(pulls) > 2:
		v.flag(Violation{Kind: Overpull, Cycle: cyc, Droplet: b.id, Cell: b.cells[0],
			Msg: fmt.Sprintf("droplet %d at %v reached by %d energized electrodes", b.id, b.cells[0], len(pulls))})
		return nil, nil
	case len(pulls) == 1:
		b.cells = append(b.cells[:0], pulls[0])
		return b, nil
	}
	// Exactly two energized electrodes in reach.
	p, q := pulls[0], pulls[1]
	onBody := b.covers(p)
	qOnBody := b.covers(q)
	switch {
	case onBody && qOnBody:
		// Both under the body: hold the stretch.
		b.cells = append(b.cells[:0], p, q)
		return b, nil
	case !onBody && !qOnBody:
		// Neither energized electrode holds the body: the droplet is
		// pulled toward two detached cells at once.
		v.flag(Violation{Kind: DropletTorn, Cycle: cyc, Droplet: b.id, Cell: b.cells[0],
			Msg: fmt.Sprintf("droplet %d at %v pulled apart by detached electrodes %v and %v", b.id, b.cells[0], p, q)})
		return nil, nil
	}
	// Exactly one electrode under the body.
	keep, pull := p, q
	if qOnBody {
		keep, pull = q, p
	}
	if len(b.cells) == 1 {
		// A single-cell droplet held by its own electrode and pulled by
		// a cardinal neighbour stretches across the pair.
		b.cells = append(b.cells[:0], keep, pull)
		return b, nil
	}
	// Stretched droplet with one end held and the other half pulled
	// away: a split (paper Figure 8).
	half := b.volume / 2
	halfSolute := make(map[string]float64, len(b.solute))
	for f, amt := range b.solute {
		halfSolute[f] = amt / 2
		b.solute[f] = amt / 2
	}
	b.cells = append(b.cells[:0], keep)
	b.volume = half
	other := &blob{id: v.nextID, cells: append(make([]grid.Cell, 0, 2), pull), volume: half, solute: halfSolute}
	v.nextID++
	return b, other
}

// mergePass coalesces droplets within fluidic interference range
// (Chebyshev distance <= 1), repeating until stable so chains collapse
// in one cycle.
func (v *verifier) mergePass(cyc int) {
	for {
		merged := false
	scan:
		for i := 0; i < len(v.blobs); i++ {
			for j := i + 1; j < len(v.blobs); j++ {
				if !blobsNear(v.blobs[i], v.blobs[j]) {
					continue
				}
				a, b := v.blobs[i], v.blobs[j]
				cells := append(append([]grid.Cell{}, a.cells...), b.cells...)
				if len(cells) > 2 {
					cells = cells[:2]
				}
				for f, amt := range b.solute {
					a.solute[f] += amt
				}
				a.cells = cells
				a.volume += b.volume
				v.blobs = append(v.blobs[:j], v.blobs[j+1:]...)
				v.rep.Merges++
				merged = true
				break scan
			}
		}
		if !merged {
			return
		}
	}
}

func blobsNear(a, b *blob) bool {
	for _, ca := range a.cells {
		for _, cb := range b.cells {
			if grid.Chebyshev(ca, cb) <= 1 {
				return true
			}
		}
	}
	return false
}

// CheckAssay compares the replay totals against the assay DAG's
// expectations — every operation completed, nothing extra happened, and
// volume is conserved — appending any mismatch to the report. The
// returned slice holds just the newly found violations.
func (r *Report) CheckAssay(a *dag.Assay) []Violation {
	st, err := a.ComputeStats()
	if err != nil {
		v := Violation{Kind: OpCountMismatch, Cycle: -1, Droplet: -1,
			Msg: fmt.Sprintf("assay does not validate: %v", err)}
		r.Violations = append(r.Violations, v)
		return []Violation{v}
	}
	var found []Violation
	expect := func(kind dag.Kind, got int) {
		want := st.ByKind[kind]
		if got != want {
			found = append(found, Violation{Kind: OpCountMismatch, Cycle: -1, Droplet: -1,
				Msg: fmt.Sprintf("%d %s events, assay has %d %s operations", got, kind, want, kind)})
		}
	}
	expect(dag.Dispense, r.Dispenses)
	expect(dag.Mix, r.Merges)
	expect(dag.Split, r.Splits)
	expect(dag.Output, r.Outputs)
	if r.RemainingDroplets != 0 {
		found = append(found, Violation{Kind: ResidualDroplet, Cycle: -1, Droplet: -1,
			Msg: fmt.Sprintf("%d droplets (%.3g units) remain on the array", r.RemainingDroplets, r.VolumeLeft)})
	}
	if math.Abs(r.VolumeIn-r.VolumeOut-r.VolumeLeft) > 1e-9 ||
		(r.RemainingDroplets == 0 && math.Abs(r.VolumeIn-r.VolumeOut) > 1e-9) {
		found = append(found, Violation{Kind: VolumeLeak, Cycle: -1, Droplet: -1,
			Msg: fmt.Sprintf("volume not conserved: %.6g in, %.6g out, %.6g left", r.VolumeIn, r.VolumeOut, r.VolumeLeft)})
	}
	r.Violations = append(r.Violations, found...)
	return found
}

package sim

import (
	"fmt"
	"strings"

	"fppc/internal/arch"
	"fppc/internal/grid"
	"fppc/internal/pins"
	"fppc/internal/router"
	"fppc/internal/telemetry"
)

// Replay is a stepwise simulator: the same physics as Run, advanced one
// actuation cycle at a time, with frame rendering for visual inspection.
type Replay struct {
	chip   *arch.Chip
	prog   *pins.Program
	events []router.Event

	st    *state
	cycle int
	evIdx int
	err   error
}

// NewReplay prepares a stepwise replay of a compiled program.
func NewReplay(chip *arch.Chip, prog *pins.Program, events []router.Event) *Replay {
	return &Replay{
		chip:   chip,
		prog:   prog,
		events: events,
		st:     newState(chip),
	}
}

// Collect streams chip-level execution telemetry from the remaining
// steps into tc (nil disables), mirroring RunCollected.
func (r *Replay) Collect(tc *telemetry.Collector) {
	tc.BindChip(r.chip)
	r.st.tc = tc
}

// Done reports whether the program is exhausted or a violation occurred.
func (r *Replay) Done() bool { return r.err != nil || r.cycle >= r.prog.Len() }

// Err returns the first physics violation, if any.
func (r *Replay) Err() error { return r.err }

// Cycle returns the next cycle to execute.
func (r *Replay) Cycle() int { return r.cycle }

// Trace returns the running counters (valid at any point).
func (r *Replay) Trace() *Trace {
	t := *r.st.trace
	t.Cycles = r.cycle
	t.Remaining = nil
	for _, d := range r.st.drops {
		t.Remaining = append(t.Remaining, *d)
	}
	return &t
}

// Step executes one actuation cycle. It returns false once the replay
// cannot advance (completion or error).
func (r *Replay) Step() bool {
	if r.Done() {
		return false
	}
	for r.evIdx < len(r.events) && r.events[r.evIdx].Cycle == r.cycle {
		if err := r.st.apply(r.cycle, r.events[r.evIdx]); err != nil {
			r.err = err
			return false
		}
		r.evIdx++
	}
	energize(r.st.active, r.chip, r.prog.Cycle(r.cycle))
	r.st.tc.Frame(r.prog.Cycle(r.cycle))
	if err := r.st.step(r.cycle); err != nil {
		r.err = err
		return false
	}
	r.cycle++
	return true
}

// Frame renders the current array state as ASCII art: droplets as 'o'
// ('O' when stretched or merged beyond unit volume), energized electrodes
// as '+', idle electrodes as '-', interference regions as spaces.
func (r *Replay) Frame() string {
	active := grid.NewCellSet(r.chip.W, r.chip.H)
	if r.cycle < r.prog.Len() {
		energize(active, r.chip, r.prog.Cycle(r.cycle))
	}
	droplet := make([]*Droplet, r.chip.W*r.chip.H)
	for _, d := range r.st.drops {
		for _, c := range d.Cells {
			if i, ok := r.st.cellIndex(c); ok {
				droplet[i] = d
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d/%d  droplets %d  merges %d  splits %d\n",
		r.cycle, r.prog.Len(), len(r.st.drops), r.st.trace.Merges, r.st.trace.Splits)
	for y := 0; y < r.chip.H; y++ {
		for x := 0; x < r.chip.W; x++ {
			i := y*r.chip.W + x
			switch d := droplet[i]; {
			case d != nil:
				if len(d.Cells) > 1 || d.Volume > 1 {
					b.WriteByte('O')
				} else {
					b.WriteByte('o')
				}
			case !r.st.hasElec[i]:
				b.WriteByte(' ')
			case active.Has(grid.Cell{X: x, Y: y}):
				b.WriteByte('+')
			default:
				b.WriteByte('-')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

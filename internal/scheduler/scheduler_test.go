package scheduler

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fppc/internal/arch"
	"fppc/internal/assays"
	"fppc/internal/dag"
)

// fppcChip builds an FPPC chip with ports placed for the assay.
func fppcChip(t testing.TB, h int, a *dag.Assay) *arch.Chip {
	t.Helper()
	c, err := arch.NewFPPC(h)
	if err != nil {
		t.Fatal(err)
	}
	placeFor(t, c, a)
	return c
}

func daChip(t testing.TB, w, h int, a *dag.Assay) *arch.Chip {
	t.Helper()
	c, err := arch.NewDA(w, h)
	if err != nil {
		t.Fatal(err)
	}
	placeFor(t, c, a)
	return c
}

func placeFor(t testing.TB, c *arch.Chip, a *dag.Assay) {
	t.Helper()
	inputs := map[string]int{}
	outSet := map[string]bool{}
	for _, n := range a.Nodes {
		switch n.Kind {
		case dag.Dispense:
			inputs[n.Fluid] = a.ReservoirCount(n.Fluid)
		case dag.Output:
			outSet[n.Fluid] = true
		}
	}
	var outs []string
	for f := range outSet {
		outs = append(outs, f)
	}
	sort.Strings(outs)
	if err := c.PlacePorts(inputs, outs); err != nil {
		t.Fatalf("PlacePorts: %v", err)
	}
}

// interval is a half-open occupancy [start, end) of one module
// instance.
type interval struct{ start, end int }

// checkNoDoubleBooking is the reference binding checker: operations
// bound to the same module instance must occupy disjoint time intervals
// (the track invariant of the left-edge binding the paper's section 4.2
// reduces placement to).
func checkNoDoubleBooking(t *testing.T, s *Schedule) {
	t.Helper()
	groups := map[Location][]interval{}
	for _, op := range s.Ops {
		if op.End > op.Start && op.Loc.Kind != LocOutput {
			key := op.Loc
			key.Slot = 0
			groups[key] = append(groups[key], interval{op.Start, op.End})
		}
	}
	for loc, ivs := range groups {
		if err := checkDisjoint(ivs); err != nil {
			t.Errorf("location %v double-booked: %v", loc, err)
		}
	}
}

// checkDisjoint reports the first pair of overlapping intervals.
func checkDisjoint(ivs []interval) error {
	for i, a := range ivs {
		for _, b := range ivs[i+1:] {
			if a.start < b.end && b.start < a.end {
				return fmt.Errorf("[%d,%d) and [%d,%d) overlap", a.start, a.end, b.start, b.end)
			}
		}
	}
	return nil
}

// TestCheckDisjointCatchesConflict checks the reference checker itself.
func TestCheckDisjointCatchesConflict(t *testing.T) {
	if err := checkDisjoint([]interval{{0, 5}, {3, 8}}); err == nil {
		t.Error("overlapping intervals accepted")
	}
	// Touching endpoints do not overlap (half-open).
	if err := checkDisjoint([]interval{{0, 5}, {5, 9}, {9, 12}}); err != nil {
		t.Errorf("disjoint intervals rejected: %v", err)
	}
}

// checkMovesMatchStarts verifies every consume/split move lands at its
// consumer's bound location at its start boundary.
func checkMovesMatchStarts(t *testing.T, s *Schedule) {
	t.Helper()
	for _, m := range s.Moves {
		if m.Kind == MoveStore {
			if m.NodeID != -1 {
				t.Errorf("store move with node id %d", m.NodeID)
			}
			continue
		}
		op := s.Ops[m.NodeID]
		if m.TS != op.Start {
			t.Errorf("move for node %d at boundary %d, op starts %d", m.NodeID, m.TS, op.Start)
		}
		if s.Assay.Node(m.NodeID).Kind != dag.Split && m.To != op.Loc {
			t.Errorf("move for node %d lands at %v, op at %v", m.NodeID, m.To, op.Loc)
		}
	}
}

func mustFPPC(t *testing.T, a *dag.Assay, h int) *Schedule {
	t.Helper()
	s, err := ScheduleFPPC(a, fppcChip(t, h, a))
	if err != nil {
		t.Fatalf("ScheduleFPPC(%s, h=%d): %v", a.Name, h, err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	checkNoDoubleBooking(t, s)
	checkMovesMatchStarts(t, s)
	return s
}

func mustDA(t *testing.T, a *dag.Assay, w, h int) *Schedule {
	t.Helper()
	s, err := ScheduleDA(a, daChip(t, w, h, a))
	if err != nil {
		t.Fatalf("ScheduleDA(%s, %dx%d): %v", a.Name, w, h, err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	checkNoDoubleBooking(t, s)
	checkMovesMatchStarts(t, s)
	return s
}

func TestFPPCSchedulePCR(t *testing.T) {
	a := assays.PCR(assays.DefaultTiming())
	s := mustFPPC(t, a, 21)
	// PCR's mixing tree is resource-unbound on 6 mix modules: the
	// makespan equals the 11 s critical path (paper Table 1).
	if s.Makespan != 11 {
		t.Errorf("PCR makespan = %d, want 11", s.Makespan)
	}
}

func TestFPPCScheduleInVitro1(t *testing.T) {
	a := assays.InVitroN(1, assays.DefaultTiming())
	s := mustFPPC(t, a, 21)
	// 4 chains on 6 mixers + 8 usable SSDs: critical path 12 s
	// (paper Table 1: 14 s).
	if s.Makespan != 12 {
		t.Errorf("In-Vitro 1 makespan = %d, want 12", s.Makespan)
	}
}

func TestFPPCScheduleProtein1DispenseBound(t *testing.T) {
	a := assays.ProteinSplit(1, assays.DefaultTiming())
	s := mustFPPC(t, a, 21)
	// 9 buffer dispenses over 2 ports at 7 s serialize to 35 s; the tail
	// (mix 3 + detect 30) lands the makespan near the paper's 71 s.
	if s.Makespan < 60 || s.Makespan > 80 {
		t.Errorf("Protein Split 1 makespan = %d, want ~71 (paper)", s.Makespan)
	}
}

func TestFPPCScheduleProtein3(t *testing.T) {
	a := assays.ProteinSplit(3, assays.DefaultTiming())
	s := mustFPPC(t, a, 21)
	// Paper: 176 s operation time, dispense-bound.
	if s.Makespan < 150 || s.Makespan > 210 {
		t.Errorf("Protein Split 3 makespan = %d, want ~176 (paper)", s.Makespan)
	}
	if s.PeakStored < 3 {
		t.Errorf("Protein Split 3 peak storage = %d, expected several stored droplets", s.PeakStored)
	}
}

func TestFPPCDispenseAblation(t *testing.T) {
	tm := assays.DefaultTiming()
	slow := mustFPPC(t, assays.ProteinSplit(3, tm), 21)
	fast := mustFPPC(t, assays.WithDispense(assays.ProteinSplit(3, tm), 2), 21)
	// Section 5.2: 2 s dispenses cut Protein Split 3 from ~189 s to ~100 s
	// total; operation time drops accordingly.
	if fast.Makespan >= slow.Makespan {
		t.Fatalf("ablation did not help: %d vs %d", fast.Makespan, slow.Makespan)
	}
	if fast.Makespan > 130 {
		t.Errorf("ablated makespan = %d, want ~100 (paper)", fast.Makespan)
	}
}

func TestFPPCInsufficientResources(t *testing.T) {
	// Protein Split 3 needs ~6 concurrent stores; a 12x9 chip (2 mix,
	// 3 SSD with one reserved) cannot run it (Table 3's "-" rows).
	a := assays.ProteinSplit(3, assays.DefaultTiming())
	_, err := ScheduleFPPC(a, fppcChip(t, 9, a))
	var ir *ErrInsufficientResources
	if !errors.As(err, &ir) {
		t.Fatalf("error = %v, want ErrInsufficientResources", err)
	}
	if ir.Error() == "" {
		t.Errorf("empty error message")
	}
}

func TestFPPCReservedSSDNeverUsed(t *testing.T) {
	a := assays.ProteinSplit(2, assays.DefaultTiming())
	chip := fppcChip(t, 21, a)
	s, err := ScheduleFPPC(a, chip)
	if err != nil {
		t.Fatal(err)
	}
	reserved := len(chip.SSDModules) - 1
	for _, op := range s.Ops {
		if op.Loc.Kind == LocSSD && op.Loc.Index == reserved {
			t.Errorf("node %d bound to reserved SSD %d", op.NodeID, reserved)
		}
	}
	for _, m := range s.Moves {
		if m.To.Kind == LocSSD && m.To.Index == reserved {
			t.Errorf("droplet %d moved to reserved SSD %d", m.Droplet, reserved)
		}
	}
}

func TestFPPCMixOnlyInMixModules(t *testing.T) {
	a := assays.InVitroN(3, assays.DefaultTiming())
	s := mustFPPC(t, a, 21)
	for _, op := range s.Ops {
		n := s.Assay.Node(op.NodeID)
		switch n.Kind {
		case dag.Mix:
			if op.Loc.Kind != LocMix {
				t.Errorf("mix %q at %v", n.Label, op.Loc)
			}
		case dag.Detect, dag.Split, dag.Store:
			if op.Loc.Kind != LocSSD {
				t.Errorf("%v %q at %v", n.Kind, n.Label, op.Loc)
			}
		case dag.Dispense:
			if op.Loc.Kind != LocReservoir {
				t.Errorf("dispense %q at %v", n.Label, op.Loc)
			}
		case dag.Output:
			if op.Loc.Kind != LocOutput {
				t.Errorf("output %q at %v", n.Label, op.Loc)
			}
		}
	}
}

func TestFPPCSameFluidDispensesSerialize(t *testing.T) {
	// Two dispenses of one fluid with one port must not overlap.
	a := dag.New("serial")
	d1 := a.Add(dag.Dispense, "D1", "x", 3)
	d2 := a.Add(dag.Dispense, "D2", "x", 3)
	m := a.Add(dag.Mix, "M", "", 3)
	o := a.Add(dag.Output, "O", "waste", 0)
	a.AddEdge(d1, m)
	a.AddEdge(d2, m)
	a.AddEdge(m, o)
	a.SetReservoirs("x", 1)
	s := mustFPPC(t, a, 15)
	o1, o2 := s.Ops[d1.ID], s.Ops[d2.ID]
	if o1.Start == o2.Start {
		t.Errorf("single-port dispenses overlap: %+v %+v", o1, o2)
	}
	if s.Makespan < 3+3+3 {
		t.Errorf("makespan %d too small for serialized dispenses", s.Makespan)
	}
}

func TestFPPCSplitChildrenPlacement(t *testing.T) {
	// dispense -> split -> two detects: both halves need SSD storage.
	a := dag.New("split2")
	d := a.Add(dag.Dispense, "D", "x", 2)
	sp := a.Add(dag.Split, "SP", "", 0)
	t1 := a.Add(dag.Detect, "T1", "", 4)
	t2 := a.Add(dag.Detect, "T2", "", 4)
	o1 := a.Add(dag.Output, "O1", "waste", 0)
	o2 := a.Add(dag.Output, "O2", "waste", 0)
	a.AddEdge(d, sp)
	a.AddEdge(sp, t1)
	a.AddEdge(sp, t2)
	a.AddEdge(t1, o1)
	a.AddEdge(t2, o2)
	s := mustFPPC(t, a, 15)
	// Both detects run concurrently in different SSDs right after the split.
	l1, l2 := s.Ops[t1.ID].Loc, s.Ops[t2.ID].Loc
	if l1 == l2 {
		t.Errorf("both split halves detected in the same SSD %v", l1)
	}
	if s.Ops[t1.ID].Start != s.Ops[sp.ID].Start || s.Ops[t2.ID].Start != s.Ops[sp.ID].Start {
		t.Errorf("detects did not start with the split: split %d, detects %d/%d",
			s.Ops[sp.ID].Start, s.Ops[t1.ID].Start, s.Ops[t2.ID].Start)
	}
}

func TestFPPCRejectsWrongChip(t *testing.T) {
	a := assays.PCR(assays.DefaultTiming())
	c := daChip(t, 15, 19, a)
	if _, err := ScheduleFPPC(a, c); err == nil {
		t.Errorf("ScheduleFPPC accepted a DA chip")
	}
}

func TestFPPCRejectsNonInstantSplit(t *testing.T) {
	a := dag.New("badsplit")
	d := a.Add(dag.Dispense, "D", "x", 2)
	sp := a.Add(dag.Split, "SP", "", 0)
	o1 := a.Add(dag.Output, "O1", "waste", 0)
	o2 := a.Add(dag.Output, "O2", "waste", 0)
	a.AddEdge(d, sp)
	a.AddEdge(sp, o1)
	a.AddEdge(sp, o2)
	sp.Duration = 3 // violate Figure 9 after construction
	if _, err := ScheduleFPPC(a, fppcChip(t, 15, a)); err == nil {
		t.Errorf("split with duration accepted")
	}
}

func TestFPPCMissingPort(t *testing.T) {
	a := assays.PCR(assays.DefaultTiming())
	c, err := arch.NewFPPC(21)
	if err != nil {
		t.Fatal(err)
	}
	// No ports placed at all.
	if _, err := ScheduleFPPC(a, c); err == nil {
		t.Errorf("scheduling with no ports succeeded")
	}
}

func TestDASchedulePCR(t *testing.T) {
	a := assays.PCR(assays.DefaultTiming())
	s := mustDA(t, a, 15, 19)
	if s.Makespan != 11 {
		t.Errorf("DA PCR makespan = %d, want 11", s.Makespan)
	}
}

func TestDAInVitroSlowerThanFPPCWhenLarge(t *testing.T) {
	// Paper Table 1: DA's shared module pool saturates on In-Vitro 4-5
	// while FPPC's split mix/SSD columns keep up.
	tm := assays.DefaultTiming()
	for _, n := range []int{4, 5} {
		a := assays.InVitroN(n, tm)
		da := mustDA(t, a, 15, 19)
		fp := mustFPPC(t, a, 21)
		if da.Makespan < fp.Makespan {
			t.Errorf("In-Vitro %d: DA %d faster than FPPC %d, paper shows the opposite",
				n, da.Makespan, fp.Makespan)
		}
	}
}

func TestDAConsolidationHappens(t *testing.T) {
	a := assays.ProteinSplit(3, assays.DefaultTiming())
	s := mustDA(t, a, 15, 19)
	if s.StorageMoves == 0 {
		t.Errorf("DA protein schedule performed no consolidation moves")
	}
}

func TestDAStorageCapacityRespected(t *testing.T) {
	a := assays.ProteinSplit(3, assays.DefaultTiming())
	s := mustDA(t, a, 15, 19)
	// Replay the moves/ops and bound per-module storage by DAStorePerMod.
	// Approximation: count Slot indices on moves.
	for _, m := range s.Moves {
		if m.To.Kind == LocWork && m.To.Slot >= arch.DAStorePerMod {
			t.Errorf("move to slot %d exceeds capacity", m.To.Slot)
		}
	}
}

func TestDAInsufficientResources(t *testing.T) {
	// A pure split tree (no waste outputs until the leaves finish their
	// long stores) must exhaust a minimal one-module DA chip.
	a := dag.New("splitstorm")
	a.SetReservoirs("x", 1)
	cur := []*dag.Node{a.Add(dag.Dispense, "D", "x", 2)}
	for lvl := 0; lvl < 3; lvl++ {
		var next []*dag.Node
		for _, p := range cur {
			sp := a.Add(dag.Split, fmt.Sprintf("SP%d_%d", lvl, len(next)), "", 0)
			a.AddEdge(p, sp)
			next = append(next, sp, sp)
		}
		cur = next
	}
	for i, p := range cur {
		st := a.Add(dag.Store, fmt.Sprintf("ST%d", i), "", 10)
		o := a.Add(dag.Output, fmt.Sprintf("O%d", i), "waste", 0)
		a.AddEdge(p, st)
		a.AddEdge(st, o)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	_, err := ScheduleDA(a, daChip(t, arch.MinDAWidth, arch.MinDAHeight, a))
	var ir *ErrInsufficientResources
	if !errors.As(err, &ir) {
		t.Fatalf("error = %v, want ErrInsufficientResources", err)
	}
}

func TestDARejectsWrongChip(t *testing.T) {
	a := assays.PCR(assays.DefaultTiming())
	c := fppcChip(t, 21, a)
	if _, err := ScheduleDA(a, c); err == nil {
		t.Errorf("ScheduleDA accepted an FPPC chip")
	}
}

func TestSchedulesForAllTable1Benchmarks(t *testing.T) {
	// Every Table 1 assay schedules on a big-enough chip of each kind.
	tm := assays.DefaultTiming()
	for _, a := range assays.Table1Benchmarks(tm) {
		h := 21
		for {
			chip := fppcChip(t, h, a)
			if _, err := ScheduleFPPC(a, chip); err == nil {
				break
			} else if h > 120 {
				t.Fatalf("%s: no FPPC chip up to height %d: %v", a.Name, h, err)
			}
			h += 2
		}
	}
}

func TestQuickRandomAssaysSchedule(t *testing.T) {
	tm := assays.DefaultTiming()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := assays.Random(rng, 30+rng.Intn(40), tm)
		chip := fppcChip(t, 33, a)
		s, err := ScheduleFPPC(a, chip)
		if err != nil {
			// Resource exhaustion is legitimate for hostile random DAGs,
			// but must be reported as such.
			var ir *ErrInsufficientResources
			if !errors.As(err, &ir) {
				t.Fatalf("seed %d: unexpected error %v", seed, err)
			}
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		checkNoDoubleBooking(t, s)
		checkMovesMatchStarts(t, s)
	}
}

func TestScheduleAccessors(t *testing.T) {
	a := assays.PCR(assays.DefaultTiming())
	s := mustFPPC(t, a, 21)
	bs := s.Boundaries()
	for i := 1; i < len(bs); i++ {
		if bs[i-1] >= bs[i] {
			t.Fatalf("Boundaries not strictly ascending: %v", bs)
		}
	}
	total := 0
	for _, ts := range bs {
		ms := s.MovesAt(ts)
		if len(ms) == 0 {
			t.Errorf("boundary %d reported but empty", ts)
		}
		total += len(ms)
	}
	if total != len(s.Moves) {
		t.Errorf("boundary moves sum %d != %d", total, len(s.Moves))
	}
}

func TestLocationStrings(t *testing.T) {
	if (Location{Kind: LocWork, Index: 3, Slot: 1}).String() != "work[3].1" {
		t.Errorf("LocWork string wrong")
	}
	if (Location{Kind: LocSSD, Index: 2}).String() != "ssd[2]" {
		t.Errorf("LocSSD string wrong")
	}
	for _, k := range []MoveKind{MoveConsume, MoveStore, MoveSplit} {
		if k.String() == "" {
			t.Errorf("MoveKind %d has empty name", k)
		}
	}
}

func BenchmarkScheduleFPPCProtein5(b *testing.B) {
	a := assays.ProteinSplit(5, assays.DefaultTiming())
	c, err := arch.NewFPPC(25)
	if err != nil {
		b.Fatal(err)
	}
	placeFor(b, c, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleFPPC(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDetectorPlacementRespected(t *testing.T) {
	// Only SSDs 0 and 1 carry detectors: every detect must bind there,
	// and In-Vitro 3's nine detections serialize over the two detectors.
	a := assays.InVitroN(3, assays.DefaultTiming())
	chip := fppcChip(t, 21, a)
	chip.LimitDetectors(2)
	s, err := ScheduleFPPC(a, chip)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range s.Ops {
		if s.Assay.Node(op.NodeID).Kind == dag.Detect {
			if op.Loc.Kind != LocSSD || op.Loc.Index >= 2 {
				t.Errorf("detect bound to %v, want detector-equipped ssd[0..1]", op.Loc)
			}
		}
	}
	full := mustFPPC(t, a, 21)
	if s.Makespan <= full.Makespan {
		t.Errorf("2-detector makespan %d not above full chip's %d", s.Makespan, full.Makespan)
	}
}

func TestNoDetectorsFails(t *testing.T) {
	a := assays.InVitroN(1, assays.DefaultTiming())
	chip := fppcChip(t, 21, a)
	chip.LimitDetectors(0)
	_, err := ScheduleFPPC(a, chip)
	var ir *ErrInsufficientResources
	if !errors.As(err, &ir) {
		t.Fatalf("error = %v, want ErrInsufficientResources (no detectors)", err)
	}
}

func TestLimitDetectorsRestore(t *testing.T) {
	a := assays.InVitroN(1, assays.DefaultTiming())
	chip := fppcChip(t, 21, a)
	chip.LimitDetectors(0)
	chip.LimitDetectors(-1)
	if _, err := ScheduleFPPC(a, chip); err != nil {
		t.Fatalf("all-detectors chip failed: %v", err)
	}
}

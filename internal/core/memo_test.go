package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fppc/internal/assays"
	"fppc/internal/dag"
	"fppc/internal/grid"
	"fppc/internal/router"
)

func memoConfig(m *Memo) Config {
	return Config{
		Target:   TargetFPPC,
		AutoGrow: true,
		Router:   router.Options{EmitProgram: true, RotationsPerStep: 1},
		Memo:     m,
	}
}

// resultsEqual compares the full externally visible artifact set of two
// compilations: schedule, routing, chip geometry and pin-program text.
func resultsEqual(t *testing.T, want, got *Result) {
	t.Helper()
	if got.Chip.W != want.Chip.W || got.Chip.H != want.Chip.H {
		t.Errorf("chip %dx%d, want %dx%d", got.Chip.W, got.Chip.H, want.Chip.W, want.Chip.H)
	}
	if !reflect.DeepEqual(got.Schedule.Ops, want.Schedule.Ops) ||
		!reflect.DeepEqual(got.Schedule.Moves, want.Schedule.Moves) ||
		!reflect.DeepEqual(got.Schedule.Droplets, want.Schedule.Droplets) ||
		got.Schedule.Makespan != want.Schedule.Makespan {
		t.Error("schedules diverge")
	}
	if !reflect.DeepEqual(got.Routing.Boundaries, want.Routing.Boundaries) ||
		!reflect.DeepEqual(got.Routing.Events, want.Routing.Events) ||
		got.Routing.TotalCycles != want.Routing.TotalCycles ||
		got.Routing.StallCycles != want.Routing.StallCycles ||
		got.Routing.BufferReloc != want.Routing.BufferReloc {
		t.Error("routing results diverge")
	}
	var wb, gb bytes.Buffer
	if want.Routing.Program != nil {
		want.Routing.Program.WriteTo(&wb)
	}
	if got.Routing.Program != nil {
		got.Routing.Program.WriteTo(&gb)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Error("pin programs diverge")
	}
}

func TestMemoHitReplaysByteIdentical(t *testing.T) {
	m := NewMemo(0)
	a := assays.PCR(assays.DefaultTiming())
	cold, err := Compile(a.Clone(), memoConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Compile(a.Clone(), memoConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := m.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", hits, misses)
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d, want 1", m.Len())
	}
	resultsEqual(t, cold, warm)
	// Beyond the text: the replayed program's storage (cycle index and
	// chunk) is reflect.DeepEqual to the cold one.
	if !reflect.DeepEqual(warm.Routing.Program, cold.Routing.Program) {
		t.Error("memo-hit pin program is not DeepEqual to the cold program")
	}
}

// TestMemoHandsOutIsolatedCopies pins the deep-clone contract: a caller
// scribbling over a replayed result must not corrupt later replays.
func TestMemoHandsOutIsolatedCopies(t *testing.T) {
	m := NewMemo(0)
	a := assays.PCR(assays.DefaultTiming())
	cold, err := Compile(a.Clone(), memoConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := Compile(a.Clone(), memoConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize every mutable artifact of the replayed copy.
	for i := range victim.Schedule.Ops {
		victim.Schedule.Ops[i].Start = -99
	}
	for i := range victim.Schedule.Moves {
		victim.Schedule.Moves[i].TS = -99
	}
	for i := range victim.Routing.Events {
		victim.Routing.Events[i].Cycle = -99
	}
	victim.Routing.Program.Append(1, 2, 3)

	again, err := Compile(a.Clone(), memoConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, cold, again)
}

func TestMemoKeySeparatesConfigs(t *testing.T) {
	m := NewMemo(0)
	a := assays.PCR(assays.DefaultTiming())
	base := memoConfig(m)
	if _, err := Compile(a.Clone(), base); err != nil {
		t.Fatal(err)
	}
	rot := base
	rot.Router.RotationsPerStep = 12
	if _, err := Compile(a.Clone(), rot); err != nil {
		t.Fatal(err)
	}
	da := base
	da.Target = TargetDA
	da.Router.EmitProgram = false // DA emits no pin program
	if _, err := Compile(a.Clone(), da); err != nil {
		t.Fatal(err)
	}
	if hits, misses := m.Stats(); hits != 0 || misses != 3 {
		t.Errorf("stats hits=%d misses=%d, want 0/3: rotations and target must key separately", hits, misses)
	}
}

// TestMemoBypassesUnkeyableConfigs: fault models and avoid predicates
// are arbitrary code the key cannot describe, so those compiles must
// not touch the memo at all — in either direction.
func TestMemoBypassesUnkeyableConfigs(t *testing.T) {
	m := NewMemo(0)
	a := assays.PCR(assays.DefaultTiming())
	if _, err := Compile(a.Clone(), memoConfig(m)); err != nil {
		t.Fatal(err)
	}

	fcfg := memoConfig(m)
	fcfg.Faults = stubFaults{n: 1}
	if _, err := Compile(a.Clone(), fcfg); err != nil {
		t.Fatal(err)
	}

	acfg := memoConfig(m)
	acfg.Router.Avoid = func(grid.Cell) bool { return false }
	if _, err := Compile(a.Clone(), acfg); err != nil {
		t.Fatal(err)
	}

	if hits, misses := m.Stats(); hits != 0 || misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want 0/1: faulted and avoid-routed compiles must bypass", hits, misses)
	}
	if m.Len() != 1 {
		t.Errorf("len = %d, want 1 (bypassed compiles must not store)", m.Len())
	}
}

func TestMemoEvictsLRU(t *testing.T) {
	m := NewMemo(2)
	tm := assays.DefaultTiming()
	as := []*dag.Assay{assays.PCR(tm), assays.InVitroN(1, tm), assays.InVitroN(2, tm)}
	for _, a := range as {
		if _, err := Compile(a.Clone(), memoConfig(m)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d, want capacity 2", m.Len())
	}
	// PCR was evicted; the two In-Vitros are still resident.
	if _, err := Compile(as[0].Clone(), memoConfig(m)); err != nil {
		t.Fatal(err)
	}
	if hits, misses := m.Stats(); hits != 0 || misses != 4 {
		t.Errorf("stats hits=%d misses=%d, want 0/4 (PCR evicted as LRU)", hits, misses)
	}
	if _, err := Compile(as[2].Clone(), memoConfig(m)); err != nil {
		t.Fatal(err)
	}
	if hits, _ := m.Stats(); hits != 1 {
		t.Errorf("hits = %d, want 1 (In-Vitro 2 must survive the eviction)", hits)
	}
}

// mutateAssay applies one random structural edit: a duration bump, a
// fluid swap, or a node renumbering. Renumbering keeps the graph
// isomorphic but must still miss the memo (numbering feeds tie-breaks);
// the other edits change the compiled artifacts outright.
func mutateAssay(t *testing.T, rng *rand.Rand, a *dag.Assay) *dag.Assay {
	t.Helper()
	c := a.Clone()
	switch rng.Intn(3) {
	case 0:
		for tries := 0; tries < 50; tries++ {
			n := c.Nodes[rng.Intn(len(c.Nodes))]
			if n.Duration > 0 {
				n.Duration++
				return c
			}
		}
		t.Fatal("no timed node to mutate")
	case 1:
		for tries := 0; tries < 50; tries++ {
			n := c.Nodes[rng.Intn(len(c.Nodes))]
			if n.Kind == dag.Dispense && n.Fluid == "fluidA" {
				n.Fluid = "fluidB"
				return c
			}
		}
		// Some small random assays dispense only fluidB; fall back.
		c.Nodes[0].Duration++
		return c
	default:
		r, err := c.Renumbered(rng.Perm(len(c.Nodes)))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	return c
}

// TestMemoNeverStaleUnderRandomEdits is the staleness property test: a
// stream of random assays and random edits compiled through one shared
// memo must always produce exactly what a cold compile of the same
// input produces. A single stale hit — an entry replayed for an input
// the pipeline would have treated differently — shows up as a
// divergence.
func TestMemoNeverStaleUnderRandomEdits(t *testing.T) {
	m := NewMemo(8) // small, so eviction churn is part of the property
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			a := assays.Random(rng, 8+rng.Intn(8), assays.DefaultTiming())
			for step := 0; step < 6; step++ {
				cold, errCold := Compile(a.Clone(), memoConfig(nil))
				warm, errWarm := Compile(a.Clone(), memoConfig(m))
				if (errCold == nil) != (errWarm == nil) {
					t.Fatalf("step %d: cold err %v, memoized err %v", step, errCold, errWarm)
				}
				if errCold == nil {
					resultsEqual(t, cold, warm)
					// An identical recompile must now hit and still agree.
					again, err := Compile(a.Clone(), memoConfig(m))
					if err != nil {
						t.Fatalf("step %d recompile: %v", step, err)
					}
					resultsEqual(t, cold, again)
				}
				a = mutateAssay(t, rng, a)
			}
		})
	}
}

// FuzzIncrementalCompile drives the same staleness property from the
// fuzzer: arbitrary (seed, size, edits) triples generate an assay and
// an edit walk, and every memoized compile along the walk must match
// its cold twin byte for byte.
func FuzzIncrementalCompile(f *testing.F) {
	f.Add(int64(1), 8, 2)
	f.Add(int64(42), 12, 3)
	f.Add(int64(7), 16, 1)
	memo := NewMemo(16)
	f.Fuzz(func(t *testing.T, seed int64, size, edits int) {
		if size < 4 || size > 24 || edits < 0 || edits > 4 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		a := assays.Random(rng, size, assays.DefaultTiming())
		for step := 0; step <= edits; step++ {
			cold, errCold := Compile(a.Clone(), memoConfig(nil))
			warm, errWarm := Compile(a.Clone(), memoConfig(memo))
			if (errCold == nil) != (errWarm == nil) {
				t.Fatalf("step %d: cold err %v, memoized err %v", step, errCold, errWarm)
			}
			if errCold == nil {
				resultsEqual(t, cold, warm)
			}
			a = mutateAssay(t, rng, a)
		}
	})
}

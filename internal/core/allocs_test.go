package core

import (
	"context"
	"testing"

	"fppc/internal/allocfloor"
	"fppc/internal/assays"
	"fppc/internal/router"
	"fppc/internal/scheduler"
)

// TestAllocsCeilingFailedAttempt is the size-search half of the
// allocation ratchet: one failed auto-grow attempt — Protein Split 7 on
// the default 12x21 FPPC chip, through the target's NewChip and Schedule
// hooks plus port placement — must stay under the committed ceiling.
// The attempt deadlocks within its first time-steps, so its cost is the
// scheduler's set-up; a regression means per-node or per-droplet
// allocations, or pool goroutines, returned to it.
func TestAllocsCeilingFailedAttempt(t *testing.T) {
	ceiling := allocfloor.Ceiling(t, "schedule_fppc_protein7_failed_attempt")
	spec, _ := LookupTarget(TargetFPPC)
	a := assays.ProteinSplit(7, assays.DefaultTiming())
	d := spec.DefaultDims(Config{})
	allocs := testing.AllocsPerRun(5, func() {
		chip, err := spec.NewChip(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := placePorts(chip, a, false); err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Schedule(context.Background(), a, chip, scheduler.Opts{}); !insufficient(err) {
			t.Fatalf("Protein Split 7 at %dx%d: err = %v, want insufficient resources", d.W, d.H, err)
		}
	})
	if allocs > ceiling {
		t.Errorf("failed Protein Split 7 attempt = %.0f allocs/op, ceiling %.0f (scripts/allocs_floor.txt)", allocs, ceiling)
	}
}

// TestAllocsCeilingCompileProgram bounds a whole Protein Split 7 FPPC
// compile with pin-program emission (auto-grow included): chunked
// program storage keeps emission from allocating once per cycle.
func TestAllocsCeilingCompileProgram(t *testing.T) {
	ceiling := allocfloor.Ceiling(t, "compile_fppc_protein7_program")
	a := assays.ProteinSplit(7, assays.DefaultTiming())
	cfg := Config{Target: TargetFPPC, AutoGrow: true, Router: router.Options{EmitProgram: true, RotationsPerStep: 1}}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Compile(a, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("Compile(Protein Split 7, fppc, program) = %.0f allocs/op, ceiling %.0f (scripts/allocs_floor.txt)", allocs, ceiling)
	}
}

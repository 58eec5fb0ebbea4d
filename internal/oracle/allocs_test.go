package oracle

import (
	"testing"

	"fppc/internal/allocfloor"
	"fppc/internal/assays"
)

// TestAllocsCeilingOracleVerify is the oracle half of the allocation
// ratchet: a full replay of the compiled PCR program must stay under
// the committed ceiling. Per-cycle state lives in dense tables cleared
// by generation stamps and in reused scratch, so the count is set-up
// plus per-droplet events (dispense, split, merge)
// — a regression means a per-cycle allocation returned.
func TestAllocsCeilingOracleVerify(t *testing.T) {
	ceiling := allocfloor.Ceiling(t, "oracle_verify_pcr")
	res := compileFPPC(t, assays.PCR(assays.DefaultTiming()))
	allocs := testing.AllocsPerRun(10, func() {
		if rep := Verify(res.Chip, res.Routing.Program, res.Routing.Events, Options{}); !rep.Ok() {
			t.Fatal(rep.Err())
		}
	})
	t.Logf("oracle.Verify(PCR) = %.0f allocs/op", allocs)
	if allocs > ceiling {
		t.Errorf("oracle.Verify(PCR) = %.0f allocs/op, ceiling %.0f (scripts/allocs_floor.txt)", allocs, ceiling)
	}
}

package sim_test

import (
	"testing"

	"fppc/internal/allocfloor"
	"fppc/internal/sim"
)

// TestAllocsCeilingSimReplay is the simulator half of the allocation
// ratchet: a full physics replay of the compiled PCR program must stay
// under the committed ceiling. The replay loop reuses its active-cell
// set, candidate scratch and droplet generation buffers across cycles,
// so the count is dominated by per-droplet events (dispense, split,
// merge) — a regression means a per-cycle allocation returned.
func TestAllocsCeilingSimReplay(t *testing.T) {
	ceiling := allocfloor.Ceiling(t, "sim_replay_pcr")
	res := compileBenchProgram(t)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sim.Run(res.Chip, res.Routing.Program, res.Routing.Events); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("sim.Run(PCR) = %.0f allocs/op", allocs)
	if allocs > ceiling {
		t.Errorf("sim.Run(PCR) = %.0f allocs/op, ceiling %.0f (scripts/allocs_floor.txt)", allocs, ceiling)
	}
}

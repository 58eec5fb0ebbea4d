package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fppc/internal/arch"
	"fppc/internal/assays"
	"fppc/internal/core"
	"fppc/internal/oracle"
	"fppc/internal/sim"
)

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// replayText renders every oracle Report field (violations in order) and
// the simulator's trace summary for one injected replay pair.
func replayText(rep *oracle.Report, tr *sim.Trace, simErr error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: cycles=%d dispenses=%d outputs=%d merges=%d splits=%d remaining=%d truncated=%v\n",
		rep.Cycles, rep.Dispenses, rep.Outputs, rep.Merges, rep.Splits, rep.RemainingDroplets, rep.Truncated)
	fmt.Fprintf(&b, "volume: in=%s out=%s left=%s\n", fmtFloat(rep.VolumeIn), fmtFloat(rep.VolumeOut), fmtFloat(rep.VolumeLeft))
	fmt.Fprintf(&b, "footprint: %s\n", rep.FootprintHash)
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "violation: %v cycle=%d droplet=%d cell=%v pin=%d msg=%q\n",
			v.Kind, v.Cycle, v.Droplet, v.Cell, v.Pin, v.Msg)
	}
	fmt.Fprintf(&b, "sim: cycles=%d dispenses=%d outputs=%d merges=%d splits=%d cross-contacts=%d merge-log=%d\n",
		tr.Cycles, tr.Dispenses, tr.Outputs, tr.Merges, tr.Splits, tr.CrossContacts, len(tr.MergeLog))
	for _, d := range tr.Remaining {
		fmt.Fprintf(&b, "remaining: id=%d cells=%v volume=%s\n", d.ID, d.Cells, fmtFloat(d.Volume))
	}
	if simErr != nil {
		fmt.Fprintf(&b, "sim-error: %v\n", simErr)
	}
	return b.String()
}

// TestReplayIdentityFaults is the degraded-hardware half of the replay
// identity gate (internal/oracle's TestReplayIdentity has the pristine
// half). For pinned PCR fault cases it records, in
// testdata/replay_identity.golden, the detection-mode replay of the
// pristine program (faults injected, not disclosed), the known-fault
// replay of that program, and the known-fault replay of the fault-aware
// recompile, each through both the oracle and the injected simulator. Run with -update (make golden) after an
// intentional change to replay semantics.
func TestReplayIdentityFaults(t *testing.T) {
	a := assays.PCR(assays.DefaultTiming())
	var b strings.Builder
	for _, target := range []core.Target{core.TargetFPPC, core.TargetEnhancedFPPC} {
		pristine, err := core.Compile(a.Clone(), oracle.VerifyConfig(target))
		if err != nil {
			t.Fatal(err)
		}
		sets := map[string]*Set{}
		for _, gc := range degradedGoldenCases(t) {
			if gc.target == target {
				sets["golden"] = gc.set
			}
		}
		// A campaign-style draw with a pinned seed.
		rng := rand.New(rand.NewSource(3))
		random, err := RandomSet(rng, pristine.Chip, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		sets["random"] = random
		// Dead pin drivers: the first mixer's hold electrode, and the
		// first transport-bus phase (every electrode on it refuses).
		holdPin := pristine.Chip.ElectrodeAt(pristine.Chip.MixModules[0].Hold).Pin
		sets["dead-hold"] = mustSet(t, Fault{Kind: DeadPin, Pin: holdPin})
		for _, e := range pristine.Chip.Electrodes() {
			if e.Kind == arch.BusH || e.Kind == arch.BusV {
				sets["dead-bus"] = mustSet(t, Fault{Kind: DeadPin, Pin: e.Pin})
				break
			}
		}
		for _, name := range []string{"golden", "random", "dead-hold", "dead-bus"} {
			set := sets[name]
			fmt.Fprintf(&b, "== %s %v %s faults=%s\n", a.Name, target, name, set)

			rep := oracle.Verify(pristine.Chip, pristine.Routing.Program, pristine.Routing.Events, oracle.Options{Faults: set})
			rep.CheckAssay(a)
			tr, simErr := sim.RunInjected(pristine.Chip, pristine.Routing.Program, pristine.Routing.Events, nil, nil, set)
			b.WriteString("-- detection\n")
			b.WriteString(replayText(rep, tr, simErr))

			// Known-fault rules on the pristine program: refused
			// actuations count only where they border a droplet.
			rep = oracle.Verify(pristine.Chip, pristine.Routing.Program, pristine.Routing.Events,
				oracle.Options{Faults: set, KnownFaults: true})
			b.WriteString("-- known-faults pristine\n")
			b.WriteString(replayText(rep, tr, simErr))

			b.WriteString("-- known-faults recompiled\n")
			cfg := oracle.VerifyConfig(target)
			cfg.AutoGrow = false
			cfg.Faults = set
			spec, _ := core.LookupTarget(target)
			spec.ApplyDims(&cfg, core.Dims{W: pristine.Chip.W, H: pristine.Chip.H})
			res, err := core.Compile(a.Clone(), cfg)
			if err != nil {
				var uns *core.ErrUnsynthesizable
				if !errors.As(err, &uns) {
					t.Fatalf("%v %s: %v", target, name, err)
				}
				fmt.Fprintf(&b, "refused: %v\n", err)
				continue
			}
			rep, verr := oracle.VerifyCompiled(res, oracle.Options{Faults: set, KnownFaults: true})
			tr, simErr = sim.RunInjected(res.Chip, res.Routing.Program, res.Routing.Events, nil, nil, set)
			b.WriteString(replayText(rep, tr, simErr))
			if verr != nil {
				fmt.Fprintf(&b, "verify-error: %v\n", verr)
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "replay_identity.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `make golden` to create)", err)
	}
	if string(want) != got {
		t.Errorf("replay identity drifted:\n--- want\n%s--- got\n%s", want, got)
	}
}

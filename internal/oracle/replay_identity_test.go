package oracle

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fppc/internal/assays"
	"fppc/internal/core"
	"fppc/internal/sim"
)

// replayIdentityFile pins the full output of both replay engines — every
// oracle Report field and the simulator's Trace summary — on the
// programs listed in TestReplayIdentity. The replays are performance
// hot paths; this file is what keeps their optimizations honest.
const replayIdentityFile = "replay_identity.golden"

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// reportText renders every field of an oracle report, violations in
// order, floats in their exact shortest form.
func reportText(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: cycles=%d dispenses=%d outputs=%d merges=%d splits=%d remaining=%d truncated=%v\n",
		rep.Cycles, rep.Dispenses, rep.Outputs, rep.Merges, rep.Splits, rep.RemainingDroplets, rep.Truncated)
	fmt.Fprintf(&b, "volume: in=%s out=%s left=%s\n", fmtFloat(rep.VolumeIn), fmtFloat(rep.VolumeOut), fmtFloat(rep.VolumeLeft))
	fmt.Fprintf(&b, "footprint: %s\n", rep.FootprintHash)
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "violation: %v cycle=%d droplet=%d cell=%v pin=%d msg=%q\n",
			v.Kind, v.Cycle, v.Droplet, v.Cell, v.Pin, v.Msg)
	}
	return b.String()
}

// traceText renders the simulator's trace summary: counts, the
// cross-contamination tally, the merge log (length and digest), the
// surviving droplets and the replay error.
func traceText(tr *sim.Trace, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: cycles=%d dispenses=%d outputs=%d merges=%d splits=%d cross-contacts=%d\n",
		tr.Cycles, tr.Dispenses, tr.Outputs, tr.Merges, tr.Splits, tr.CrossContacts)
	h := sha256.New()
	for _, m := range tr.MergeLog {
		fmt.Fprintf(h, "%d %v;", m.Cycle, m.Cell)
	}
	fmt.Fprintf(&b, "merge-log: %d %x\n", len(tr.MergeLog), h.Sum(nil)[:8])
	fmt.Fprintf(&b, "sim-volume: in=%s out=%s collected=%d\n", fmtFloat(tr.VolumeIn), fmtFloat(tr.VolumeOut), len(tr.Collected))
	for _, d := range tr.Remaining {
		fmt.Fprintf(&b, "remaining: id=%d cells=%v volume=%s solute=%s\n", d.ID, d.Cells, fmtFloat(d.Volume), soluteText(d.Solute))
	}
	if err != nil {
		var se *sim.Error
		if errors.As(err, &se) {
			fmt.Fprintf(&b, "sim-error: cycle=%d droplet=%d cell=%v %s\n", se.Cycle, se.Droplet, se.Cell, se.Msg)
		} else {
			fmt.Fprintf(&b, "sim-error: %v\n", err)
		}
	}
	return b.String()
}

func soluteText(s map[string]float64) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + fmtFloat(s[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// replayBoth runs the oracle (with the assay check) and the simulator on
// a compiled program and renders both.
func replayBoth(res *core.Result) string {
	rep := Verify(res.Chip, res.Routing.Program, res.Routing.Events, Options{})
	rep.CheckAssay(res.Assay)
	tr, err := sim.Run(res.Chip, res.Routing.Program, res.Routing.Events)
	return reportText(rep) + traceText(tr, err)
}

// TestReplayIdentity is the before/after gate for the replay engines.
// It records, in testdata/replay_identity.golden:
//   - Table 1 on FPPC and Enhanced FPPC at VerifyConfig (typed refusals
//     recorded as such);
//   - Protein Split 3 at the service's 12 rotations per step;
//   - a stepwise sim.Replay of PCR, every ASCII frame included;
//   - every single-bit mutant of the PCR program that SweepMutations
//     replays, folded into one digest plus per-kind tallies.
//
// The degraded-hardware half (detection and known-fault replays) lives
// in internal/faults. Run with -update (make golden) after an
// intentional change to replay semantics.
func TestReplayIdentity(t *testing.T) {
	var b strings.Builder
	tm := assays.DefaultTiming()
	for _, target := range []core.Target{core.TargetFPPC, core.TargetEnhancedFPPC} {
		for _, a := range assays.Table1Benchmarks(tm) {
			fmt.Fprintf(&b, "== %s %v\n", a.Name, target)
			res, err := core.Compile(a, VerifyConfig(target))
			if err != nil {
				var uns *core.ErrUnsynthesizable
				if !errors.As(err, &uns) {
					t.Fatalf("%s %v: %v", a.Name, target, err)
				}
				fmt.Fprintf(&b, "refused: %v\n", err)
				continue
			}
			b.WriteString(replayBoth(res))
		}
	}

	ps3, err := core.Compile(assays.ProteinSplit(3, tm), serviceConfig())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "== %s fppc rotations=12\n", ps3.Assay.Name)
	b.WriteString(replayBoth(ps3))

	pcr := compileFPPC(t, assays.PCR(tm))
	b.WriteString(stepwiseReplay(pcr))
	b.WriteString(mutantDigest(t, pcr))
	checkGolden(t, replayIdentityFile, b.String())
}

// stepwiseReplay steps a sim.Replay through the program, digesting the
// ASCII frame before every cycle and after the last, and renders the
// final trace.
func stepwiseReplay(res *core.Result) string {
	r := sim.NewReplay(res.Chip, res.Routing.Program, res.Routing.Events)
	h := sha256.New()
	io.WriteString(h, r.Frame())
	for r.Step() {
		io.WriteString(h, r.Frame())
	}
	return fmt.Sprintf("== %s fppc stepwise\nframes: %x\n", res.Assay.Name, h.Sum(nil)) + traceText(r.Trace(), r.Err())
}

// mutantDigest replays every exhaustive single-bit mutant of the
// program through both engines and summarizes the renderings.
func mutantDigest(t *testing.T, res *core.Result) string {
	t.Helper()
	prog := res.Routing.Program
	pins := res.Chip.PinCount()
	h := sha256.New()
	kinds := map[ViolationKind]int{}
	flagged, deviated := 0, 0
	base := Verify(res.Chip, prog, res.Routing.Events, Options{})
	for f := 0; f < prog.Len(); f++ {
		for p := 1; p <= pins; p++ {
			mp, err := MutantProgram(prog, pins, Mutant{Frame: f, Pin: p})
			if err != nil {
				t.Fatal(err)
			}
			rep := Verify(res.Chip, mp, res.Routing.Events, Options{})
			rep.CheckAssay(res.Assay)
			tr, simErr := sim.Run(res.Chip, mp, res.Routing.Events)
			fmt.Fprintf(h, "%d/%d\n", f, p)
			io.WriteString(h, reportText(rep))
			io.WriteString(h, traceText(tr, simErr))
			if !rep.Ok() {
				flagged++
			}
			if rep.FootprintHash != base.FootprintHash {
				deviated++
			}
			for _, v := range rep.Violations {
				kinds[v.Kind]++
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s fppc mutants\n", res.Assay.Name)
	fmt.Fprintf(&b, "mutants: total=%d flagged=%d footprint-deviations=%d\n", prog.Len()*pins, flagged, deviated)
	for k := DropletLost; k <= RefusedActuation; k++ {
		if kinds[k] > 0 {
			fmt.Fprintf(&b, "mutant-violations: %v=%d\n", k, kinds[k])
		}
	}
	fmt.Fprintf(&b, "mutants-digest: %x\n", h.Sum(nil))
	return b.String()
}

// checkGolden compares got with testdata/file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
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
		t.Errorf("%s drifted:\n%s", file, firstDiff(string(want), got))
	}
}

// firstDiff shows the first differing line of two renderings.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n--- want\n%s\n--- got\n%s", i+1, w, g)
		}
	}
	return "(identical lines, different bytes)"
}

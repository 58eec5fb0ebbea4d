package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"fppc/internal/core"
	"fppc/internal/dag"
)

// synthMinSweeps is the fewest sweeps a run times; past it, a run
// sweeps until its timed phase has lasted the requested seconds.
const synthMinSweeps = 5

// Reconciliation tolerances. The traced layer sum of each synth_table1
// row must match the row's untraced core.Compile time (best of traceReps
// on each side) within rowTolerance, and the sums over all rows of the
// per-row medians within totalTolerance. A single compile on a shared
// 2-core box jitters by up to ~30%, so rows are held to the looser
// bound; the worst row's residual is reported either way.
const (
	rowTolerance   = 0.50
	totalTolerance = 0.10
)

// traceReps is how often a traced run replays each row.
const traceReps = 11

// expectRefusal reports the Table 1 rows that must end in a typed
// unsynthesizable refusal: the enhanced FPPC chip's fixed 10-port
// perimeter cannot host In-Vitro 3-5.
func expectRefusal(slug, target string) bool {
	return target == "enhanced-fppc" && (slug == "iv3" || slug == "iv4" || slug == "iv5")
}

type synthRow struct {
	slug, target string
	assay        *dag.Assay
	cfg          core.Config
	ref          *core.Result
	refErr       error
	times        []float64 // untraced compile times, ms
	seg          []int     // the speed probe's segment of each time
}

func (r *synthRow) name() string { return r.slug + "." + r.target }

// runSynth is the synth_table1 workload: one closed-loop caller running
// whole sweeps of core.Compile over the 13 Table 1 assays x the
// registered targets.
func runSynth(p params) (*result, error) {
	res := newResult()
	var rows []*synthRow
	for _, sh := range loadShapes(servedQuotaBase) {
		for _, spec := range core.Targets() {
			rows = append(rows, &synthRow{slug: sh.slug, target: spec.Name, assay: sh.assay, cfg: compileConfig(spec)})
		}
	}

	// Set-up is the first (cold) compile of every row.
	_ = timeSetup(res, func() error {
		for _, r := range rows {
			r.ref, r.refErr = core.Compile(r.assay, r.cfg)
		}
		return nil
	})

	refs := make([]outline, len(rows))
	for i, r := range rows {
		refs[i] = outlineOf(r.ref, r.refErr)
	}
	start := startPhase()
	pr := newSpeedProbe()
	for s := 0; s < synthMinSweeps || time.Since(start.at) < time.Duration(p.seconds)*time.Second; s++ {
		for i, r := range rows {
			seg := pr.tick()
			t0 := startOp()
			out, err := core.Compile(r.assay, r.cfg)
			d := t0.ms()
			r.times = append(r.times, d)
			r.seg = append(r.seg, seg)
			res.attempted++
			if got := outlineOf(out, err); got != refs[i] {
				res.fail("%s sweep %d: %+v, first compile %+v", r.name(), s, got, refs[i])
			}
		}
	}
	scales := pr.scales()
	end := readRuntime()
	res.phaseRuntime(start, end, res.attempted, 0)
	res.layer["bench.probe_ms"] = pr.probeMS()

	var all []float64
	groups := map[string][]float64{}
	total := 0.0
	cycles := 0
	for _, r := range rows {
		norm := scaleAll(r.times, r.seg, scales)
		groups[r.name()] = norm
		all = append(all, norm...)
		res.layer["core.compile_ms."+r.name()] = median(norm)
		if r.refErr == nil {
			total += r.ref.TotalSeconds()
			cycles += r.ref.Routing.TotalCycles
		}
	}
	res.latencies(all, groups)
	// The rows' times form 39 tight clusters, so the median of all
	// compiles sits on a cluster boundary and jumps between runs; the
	// median of the row medians is the steady equivalent.
	res.e2e["p50_ms"] = median(groupMedians(groups))
	res.e2e["ops_per_s"] = medianThroughput(groups)
	res.e2e["assay_s_total"] = total
	res.layer["router.cycles"] = float64(cycles)

	for _, r := range rows {
		if err := checkSynthRow(r); err != nil {
			res.fail("%s: %v", r.name(), err)
		}
	}
	if p.trace {
		if err := traceSynth(p, res, rows); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkSynthRow checks one row's reference compile: the refusal is the
// typed one exactly where expected, a pin program replays cleanly in the
// oracle on a rebuilt chip, and the hooks chain reproduces the compile.
func checkSynthRow(r *synthRow) error {
	var uns *core.ErrUnsynthesizable
	if expectRefusal(r.slug, r.target) {
		if !errors.As(r.refErr, &uns) {
			return fmt.Errorf("want a typed unsynthesizable refusal, got %v", r.refErr)
		}
	} else if r.refErr != nil {
		return r.refErr
	}
	chain, _, err := compileChain(nil, r.assay, r.cfg)
	if got, want := outlineOf(chain, err), outlineOf(r.ref, r.refErr); got != want {
		return fmt.Errorf("hooks chain %+v, core.Compile %+v", got, want)
	}
	if r.refErr != nil {
		if !errors.As(err, &uns) {
			return fmt.Errorf("hooks chain refused with %v", err)
		}
		return nil
	}
	if prog := r.ref.Routing.Program; prog != nil {
		if !sameProgram(r.ref, chain.Routing.Program, chain.Routing.Events) {
			return fmt.Errorf("hooks chain program differs from core.Compile")
		}
		if _, _, err := verifyProgram(nil, r.assay, r.cfg, r.ref.Chip.W, r.ref.Chip.H, prog, r.ref.Routing.Events, r.ref.Schedule); err != nil {
			return fmt.Errorf("oracle replay: %w", err)
		}
	}
	return nil
}

// traceSynth replays every row through the hooks chain, untraced and
// traced, and reconciles the traced layer sums with the untraced
// core.Compile medians of the timed phase.
func traceSynth(p params, res *result, rows []*synthRow) error {
	tr := newTracer()
	var untracedTotal, tracedTotal float64
	attempts, useful := 0, 0
	direct := make([][]float64, len(rows))
	for i, r := range rows {
		for rep := 0; rep < traceReps; rep++ {
			// Same context for all three: the untraced core.Compile the
			// layers must add up to, the untraced hooks chain, and the
			// traced hooks chain.
			t0 := time.Now()
			_, _ = core.Compile(r.assay, r.cfg)
			direct[i] = append(direct[i], ms(time.Since(t0)))
			t0 = time.Now()
			_, _, _ = compileChain(nil, r.assay, r.cfg)
			untracedTotal += ms(time.Since(t0))

			tr.setOp(i*traceReps + rep)
			root := tr.begin(spOp)
			out, n, err := compileChain(tr, r.assay, r.cfg)
			tr.end(root)
			tracedTotal += ms(tr.spans[root].Dur)
			attempts += n
			if err == nil && out != nil {
				useful++
			}
		}
	}
	sums := opLayerSums(tr.spans)
	var sumUntraced, sumTraced, worst float64
	for i, r := range rows {
		var layerSums []float64
		for rep := 0; rep < traceReps; rep++ {
			layerSums = append(layerSums, ms(sums[i*traceReps+rep]))
		}
		sumUntraced += median(direct[i])
		sumTraced += median(layerSums)
		// Per row, best of the reps on both sides: a GC cycle landing
		// in one rep says nothing about whether the layers add up.
		u, t := slices.Min(direct[i]), slices.Min(layerSums)
		rr := residual(u, t)
		worst = math.Max(worst, math.Abs(rr))
		if math.Abs(rr) > rowTolerance {
			res.problem("reconcile %s: traced layer sum %.3f ms vs untraced core.Compile %.3f ms (residual %.1f%% > %.0f%%)",
				r.name(), t, u, 100*rr, 100*rowTolerance)
		}
	}
	ops := len(rows) * traceReps
	total := residual(sumUntraced, sumTraced)
	if math.Abs(total) > totalTolerance {
		res.problem("reconcile: traced layer sums %.1f ms vs untraced %.1f ms (residual %.1f%% > %.0f%%)",
			sumTraced, sumUntraced, 100*total, 100*totalTolerance)
	}
	res.layer["bench.reconcile_residual"] = math.Abs(total)
	res.layer["bench.reconcile_tolerance"] = totalTolerance
	res.layer["bench.reconcile_worst_row"] = worst
	res.layer["bench.trace_overhead"] = overhead(untracedTotal, tracedTotal)
	res.layer["core.size_attempts"] = float64(attempts) / float64(ops)
	res.layer["core.size_useful_ratio"] = float64(useful) / float64(attempts)
	fillLayers(res, tr.spans, ops)
	return writeChrome(p.traceOut, tr.spans)
}

// fillLayers turns span self times into per-op layer metrics.
func fillLayers(res *result, spans []span, ops int) {
	if ops == 0 {
		return
	}
	tot := layerTotals(spans, nil)
	per := func(name string) float64 { return ms(tot[name]) / float64(ops) }
	for metric, sp := range map[string]string{
		"dag.fingerprint_ms":    spFingerprint,
		"dag.decode_ms":         spDecode,
		"asl.parse_ms":          spParse,
		"dag.validate_ms":       spValidate,
		"core.new_chip_ms":      spNewChip,
		"core.place_ports_ms":   spPlacePorts,
		"scheduler.schedule_ms": spSchedule,
		"router.route_ms":       spRoute,
		"oracle.verify_ms":      spVerify,
		"sim.replay_ms":         spReplay,
	} {
		res.layer[metric] = per(sp)
	}
	var failed time.Duration
	for _, s := range spans {
		if s.Failed && s.Attempt > 0 {
			failed += s.Dur
		}
	}
	res.layer["core.size_failed_ms"] = ms(failed) / float64(ops)
}

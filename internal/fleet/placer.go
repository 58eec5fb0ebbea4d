package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"fppc/internal/core"
	"fppc/internal/dag"
	"fppc/internal/faults"
	"fppc/internal/grid"
	"fppc/internal/oracle"
	"fppc/internal/sim"
	"fppc/internal/telemetry"
)

// compiled is one fleet compile outcome: an assay synthesized for a
// specific chip spec under a specific fault set, with everything the
// control plane needs downstream — the telemetry snapshot (wear
// contribution), the cells the program actuates (degradation-impact
// checks), the operation schedule spans (locating work in flight), and
// the oracle's verdict on the destination chip.
type compiled struct {
	done chan struct{} // closed when the compile finishes

	err       error // terminal compile error (unsynthesizable etc.)
	snap      *telemetry.Snapshot
	used      map[grid.Cell]bool
	spans     []opSpan
	makespan  int
	verified  bool
	verifyErr error
	mode      string // oracle mode: "frames" (fppc program) or "schedule"
}

// compileCache memoizes fleet compiles by (assay, chip spec, fault
// spec). Compilation is deterministic over canonical assays, so an
// entry never goes stale; concurrent requests for the same key share
// one compile via the done channel. Cancelled compiles are evicted so a
// timeout does not poison the key.
type compileCache struct {
	mu      sync.Mutex
	entries map[string]*compiled
}

func compileKey(fp string, spec ChipSpec, faultSpec string) string {
	return fmt.Sprintf("%s|%s|h%d|%dx%d|%s", fp, spec.Target, spec.Height, spec.W, spec.H, faultSpec)
}

// compileFor synthesizes the assay for the chip (or returns the
// memoized outcome). The fault set must be the one faultSpec renders.
// A caller that finds the compile already in flight waits for it only
// as long as its own context allows: on expiry it gets an uncached
// canceled outcome, and the compile carries on for its leader.
func (f *Fleet) compileFor(ctx context.Context, assay *dag.Assay, fp string, spec ChipSpec, set *faults.Set, faultSpec string) *compiled {
	key := compileKey(fp, spec, faultSpec)
	f.compiles.mu.Lock()
	if e := f.compiles.entries[key]; e != nil {
		f.compiles.mu.Unlock()
		select {
		case <-e.done:
			return e
		case <-ctx.Done():
			return &compiled{err: fmt.Errorf("fleet: waiting for an in-flight compile: %w", ctx.Err())}
		}
	}
	e := &compiled{done: make(chan struct{})}
	f.compiles.entries[key] = e
	f.compiles.mu.Unlock()

	cctx, cancel := context.WithTimeout(ctx, f.compileTimeout)
	f.runCompile(cctx, e, assay, spec, set)
	cancel()
	if e.err != nil && isCanceled(e.err) {
		// Don't memoize a deadline as if the chip were infeasible.
		f.compiles.mu.Lock()
		delete(f.compiles.entries, key)
		f.compiles.mu.Unlock()
	}
	close(e.done)
	return e
}

// runCompile executes the fault-aware compile, collects telemetry (the
// simulator replays the pin program when the target emits one), and
// verifies the result with the independent oracle under known-fault
// injection.
func (f *Fleet) runCompile(ctx context.Context, e *compiled, assay *dag.Assay, spec ChipSpec, set *faults.Set) {
	cfg := coreConfig(spec, set)
	cfg.Memo = f.memo
	tc := telemetry.New()
	cfg.Router.Telemetry = tc
	if tspec, ok := core.LookupTargetName(spec.Target); ok && tspec.Capabilities.PinProgram {
		// Only pin-program targets yield electrode-level telemetry;
		// placements on timing-only baselines (DA) carry schedule spans
		// but no wear contribution or used-cell map.
		cfg.Router.EmitProgram = true
	}
	res, err := core.CompileContext(ctx, assay, cfg)
	if err != nil {
		e.err = err
		return
	}
	tc.AttachSchedule(res.Schedule)
	if prog := res.Routing.Program; prog != nil {
		// Telemetry is advisory (service discipline): a replay error
		// leaves the partial snapshot; the oracle below is the check.
		_, _ = sim.RunCollected(res.Chip, prog, res.Routing.Events, nil, tc)
	}
	e.snap = tc.Snapshot()
	e.makespan = res.Schedule.Makespan
	for _, m := range e.snap.Modules {
		e.spans = append(e.spans, opSpan{node: m.NodeID, start: m.Start, end: m.End})
	}
	for _, el := range e.snap.Electrodes {
		if el.Actuations > 0 {
			if e.used == nil {
				e.used = make(map[grid.Cell]bool)
			}
			e.used[grid.Cell{X: el.X, Y: el.Y}] = true
		}
	}
	opts := oracle.Options{}
	if set.Len() > 0 {
		opts.Faults = set
		opts.KnownFaults = true
	}
	if _, err := oracle.VerifyCompiled(res, opts); err != nil {
		e.verifyErr = err
		return
	}
	e.verified = true
	e.mode = "schedule"
	if res.Routing.Program != nil {
		e.mode = "frames"
	}
}

// feasible reports whether the compile produced a usable, verified
// program for its chip.
func (e *compiled) feasible() bool { return e.err == nil && e.verified }

// failure renders why the chip was rejected.
func (e *compiled) failure() string {
	switch {
	case e.err != nil:
		return e.err.Error()
	case e.verifyErr != nil:
		return "oracle: " + e.verifyErr.Error()
	default:
		return ""
	}
}

func isCanceled(err error) bool {
	var ce *core.ErrCanceled
	return errors.As(err, &ce) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// chipView is a consistent read of one chip taken under the fleet lock,
// used for scoring outside it.
type chipView struct {
	id        string
	spec      ChipSpec
	effective *faults.Set
	effSpec   string
	wear      *faults.WearState // clone — safe to mutate for projections
	ratedLife int64
	jobs      int
}

// viewsLocked snapshots every chip; the caller holds mu.
func (f *Fleet) viewsLocked() []chipView {
	out := make([]chipView, 0, len(f.order))
	for _, id := range f.order {
		c := f.chips[id]
		out = append(out, chipView{
			id:        id,
			spec:      c.spec,
			effective: c.effective,
			effSpec:   c.effSpec,
			wear:      c.wear.Clone(),
			ratedLife: c.ratedLife,
			jobs:      len(c.jobs),
		})
	}
	return out
}

// score ranks a feasible placement; lower is better, compared
// lexicographically. Fault-fit leads (a chip with fewer effective
// faults constrains the synthesis less), predicted wear follows (the
// worst per-electrode life fraction the chip would reach after running
// this program), then current load, the program's makespan on that
// chip, and finally the chip id for a total deterministic order.
//
// Predicted wear compares in 5%-of-life buckets: one extra run's worth
// of wear must not defeat load balancing, but a chip visibly closer to
// the end of its life should lose placements to a fresher one. The
// exact fraction still breaks ties after load and makespan.
type score struct {
	faults   int
	predWear float64
	jobs     int
	makespan int
	chipID   string
}

// wearBucket coarsens a life fraction into 5% steps.
func wearBucket(w float64) int { return int(w * 20) }

func (a score) better(b score) bool {
	if a.faults != b.faults {
		return a.faults < b.faults
	}
	if wa, wb := wearBucket(a.predWear), wearBucket(b.predWear); wa != wb {
		return wa < wb
	}
	if a.jobs != b.jobs {
		return a.jobs < b.jobs
	}
	if a.makespan != b.makespan {
		return a.makespan < b.makespan
	}
	if a.predWear != b.predWear {
		return a.predWear < b.predWear
	}
	return a.chipID < b.chipID
}

func (a score) String() string {
	return fmt.Sprintf("faults=%d wear=%.4f jobs=%d makespan=%d", a.faults, a.predWear, a.jobs, a.makespan)
}

// candidate pairs a chip with the compile outcome and score of placing
// the assay there.
type candidate struct {
	view chipView
	comp *compiled
	sc   score
}

// evaluate compiles the assay for every compatible chip (skipping
// `exclude`) and returns the best feasible candidate, or nil with the
// per-chip rejection reasons. A context abort surfaces as an error so
// the reconciler can stop the pass instead of failing the job.
func (f *Fleet) evaluate(ctx context.Context, assay *dag.Assay, fp, target string, views []chipView, exclude string) (*candidate, []string, error) {
	var best *candidate
	var reasons []string
	for _, v := range views {
		if v.id == exclude {
			continue
		}
		if target != "" && target != v.spec.Target {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		comp := f.compileFor(ctx, assay, fp, v.spec, v.effective, v.effSpec)
		if !comp.feasible() {
			if comp.err != nil && isCanceled(comp.err) {
				return nil, nil, comp.err
			}
			reasons = append(reasons, fmt.Sprintf("%s: %s", v.id, comp.failure()))
			continue
		}
		// Project the chip's wear as if this program had run: the clone
		// absorbs the program's actuations, and the resulting worst
		// life-fraction is the candidate's predicted wear.
		proj := v.wear.Clone()
		proj.Absorb(comp.snap)
		sc := score{
			faults:   v.effective.Len(),
			predWear: proj.MaxConsumed(v.ratedLife),
			jobs:     v.jobs,
			makespan: comp.makespan,
			chipID:   v.id,
		}
		if best == nil || sc.better(best.sc) {
			best = &candidate{view: v, comp: comp, sc: sc}
		}
	}
	sort.Strings(reasons)
	return best, reasons, nil
}

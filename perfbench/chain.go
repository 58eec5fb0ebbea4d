package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"fppc/internal/arch"
	"fppc/internal/asl"
	"fppc/internal/core"
	"fppc/internal/dag"
	"fppc/internal/grid"
	"fppc/internal/oracle"
	"fppc/internal/pins"
	"fppc/internal/router"
	"fppc/internal/scheduler"
	"fppc/internal/service"
	"fppc/internal/sim"
	"fppc/internal/telemetry"
)

// compileChain is core.Compile's size search spelled out through the
// public TargetSpec hooks, one span per layer: validate the assay, then
// for each size attempt build the chip, place the ports, schedule
// (including the schedule's own validation) and route, growing the
// array after an insufficient-resources failure. It returns the same
// result and the same typed refusals as core.Compile (the synth_table1
// checks hold it to that), plus the number of sizes tried.
func compileChain(tr *tracer, a *dag.Assay, cfg core.Config) (*core.Result, int, error) {
	spec, ok := core.LookupTarget(cfg.Target)
	if !ok {
		return nil, 0, fmt.Errorf("perfbench: unknown target %d", int(cfg.Target))
	}
	sp := tr.begin(spValidate)
	err := a.Validate()
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	ctx := context.Background()
	d := spec.DefaultDims(cfg)
	for attempt := 1; ; attempt++ {
		first := -1
		if tr != nil {
			first = len(tr.spans)
		}
		res, err := compileAttempt(tr, ctx, a, cfg, spec, d)
		if tr != nil {
			for i := first; i < len(tr.spans); i++ {
				tr.tag(i, attempt, err != nil)
			}
		}
		if err == nil {
			return res, attempt, nil
		}
		var pc *arch.PortCapacityError
		if spec.Capabilities.FixedPortCapacity && errors.As(err, &pc) {
			return nil, attempt, &core.ErrUnsynthesizable{Assay: a.Name, Target: spec.ID, Err: err}
		}
		var ir *scheduler.ErrInsufficientResources
		if !cfg.AutoGrow || !spec.Capabilities.AutoGrow || !errors.As(err, &ir) {
			return nil, attempt, err
		}
		next, ok := spec.Grow(d)
		if !ok {
			return nil, attempt, &core.ErrChipExhausted{Assay: a.Name, Target: spec.ID,
				LastW: d.W, LastH: d.H, Attempts: attempt, Err: err}
		}
		d = next
	}
}

func compileAttempt(tr *tracer, ctx context.Context, a *dag.Assay, cfg core.Config, spec *core.TargetSpec, d core.Dims) (*core.Result, error) {
	sp := tr.begin(spNewChip)
	chip, err := spec.NewChip(d)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(spPlacePorts)
	err = core.PlacePortsForAssay(chip, a)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("port placement on %s: %w", chip.Name, err)
	}
	sp = tr.begin(spSchedule)
	s, err := spec.Schedule(ctx, a, chip, scheduler.Opts{})
	if err == nil {
		err = s.Validate()
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(spRoute)
	routing, err := spec.Route(ctx, s, cfg.Router)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &core.Result{Assay: a, Chip: chip, Schedule: s, Routing: routing}, nil
}

// outline is what two compiles of one assay must agree on.
type outline struct {
	W, H, Makespan, Moves, StorageMoves, RouteCycles int
	TotalSeconds                                     float64
	Refused                                          bool
}

func outlineOf(res *core.Result, err error) outline {
	if err != nil {
		return outline{Refused: true}
	}
	return outline{
		W: res.Chip.W, H: res.Chip.H, Makespan: res.Schedule.Makespan,
		Moves: len(res.Schedule.Moves), StorageMoves: res.Schedule.StorageMoves,
		RouteCycles: res.Routing.TotalCycles, TotalSeconds: res.TotalSeconds(),
	}
}

func outlineOfReply(r *service.CompileResponse) outline {
	return outline{
		W: r.Chip.W, H: r.Chip.H, Makespan: r.Stats.Makespan,
		Moves: r.Stats.Moves, StorageMoves: r.Stats.StorageMoves,
		RouteCycles: r.Stats.RouteCycles, TotalSeconds: r.Stats.TotalSeconds,
	}
}

// verifyProgram replays a pin program in the oracle on a chip rebuilt
// from scratch at the given size (TargetSpec.NewChip plus
// core.PlacePortsForAssay), checks it against the assay, cross-checks
// the simulator, and returns the footprint digest.
func verifyProgram(tr *tracer, a *dag.Assay, cfg core.Config, w, h int, prog *pins.Program, events []router.Event, sched *scheduler.Schedule) (*core.Result, string, error) {
	spec, _ := core.LookupTarget(cfg.Target)
	sp := tr.begin(spVerify)
	defer tr.end(sp)
	chip, err := spec.NewChip(core.Dims{W: w, H: h})
	if err != nil {
		return nil, "", err
	}
	if err := core.PlacePortsForAssay(chip, a); err != nil {
		return nil, "", err
	}
	res := &core.Result{Assay: a, Chip: chip, Schedule: sched,
		Routing: &router.Result{Program: prog, Events: events}}
	rep, err := oracle.VerifyCompiled(res, oracle.Options{})
	if err != nil {
		return nil, "", err
	}
	return res, rep.FootprintHash, nil
}

// telemetryReplay is the simulator replay /compile runs after each
// pin-program compile to collect chip telemetry.
func telemetryReplay(tr *tracer, res *core.Result) error {
	sp := tr.begin(spReplay)
	defer tr.end(sp)
	tc := telemetry.New()
	tc.AttachSchedule(res.Schedule)
	_, err := sim.RunCollected(res.Chip, res.Routing.Program, res.Routing.Events, nil, tc)
	return err
}

// programOf rebuilds the pin program and reservoir events of a reply.
func programOf(seq *service.Sequence) (*pins.Program, []router.Event, error) {
	prog := &pins.Program{}
	for _, c := range seq.Cycles {
		prog.Append(c...)
	}
	events := make([]router.Event, 0, len(seq.Events))
	for _, ev := range seq.Events {
		kind := router.EvDispense
		switch ev.Kind {
		case "dispense":
		case "output":
			kind = router.EvOutput
		default:
			return nil, nil, fmt.Errorf("unknown sequence event kind %q", ev.Kind)
		}
		events = append(events, router.Event{Cycle: ev.Cycle, Kind: kind, Cell: grid.Cell{X: ev.X, Y: ev.Y}, Fluid: ev.Fluid})
	}
	return prog, events, nil
}

// sameProgram reports whether a reply's sequence is the reference
// compile's program, cycle for cycle and event for event.
func sameProgram(ref *core.Result, prog *pins.Program, events []router.Event) bool {
	rp := ref.Routing.Program
	if rp == nil || rp.Len() != prog.Len() || !slices.Equal(ref.Routing.Events, events) {
		return false
	}
	for i := 0; i < rp.Len(); i++ {
		if !slices.Equal(rp.Cycle(i), prog.Cycle(i)) {
			return false
		}
	}
	return true
}

// request is one generated /compile input: the wire body and the shape
// and target it stands for.
type request struct {
	shape  int
	target string
	body   []byte
}

// decodeAssay re-reads a request's assay the way the server does: the
// JSON DAG decode or the ASL parse, then validation, the fingerprint
// and the canonical form, each in its own span. It returns the
// canonical assay and the server-side compile config the request names.
func decodeAssay(tr *tracer, body []byte) (*dag.Assay, core.Config, service.CompileRequest, error) {
	var req service.CompileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, core.Config{}, req, err
	}
	var a *dag.Assay
	var err error
	if req.ASL != "" {
		sp := tr.begin(spParse)
		a, err = asl.Parse(req.ASL)
		tr.end(sp)
	} else {
		sp := tr.begin(spDecode)
		a = &dag.Assay{}
		err = json.Unmarshal(req.DAG, a)
		tr.end(sp)
	}
	if err != nil {
		return nil, core.Config{}, req, err
	}
	sp := tr.begin(spValidate)
	err = a.Validate()
	tr.end(sp)
	if err != nil {
		return nil, core.Config{}, req, err
	}
	sp = tr.begin(spFingerprint)
	_, err = a.Fingerprint()
	tr.end(sp)
	if err != nil {
		return nil, core.Config{}, req, err
	}
	sp = tr.begin(spCanonical)
	canon, err := a.Canonical()
	tr.end(sp)
	if err != nil {
		return nil, core.Config{}, req, err
	}
	spec, err := core.ParseTarget(req.Target)
	if err != nil {
		return nil, core.Config{}, req, err
	}
	cfg := core.Config{Target: spec.ID, AutoGrow: req.Grow}
	if req.Sequence {
		cfg.Router = router.Options{EmitProgram: true, RotationsPerStep: 12}
	}
	return canon, cfg, req, nil
}

// checkReply is the output check of one /compile reply: it recompiles
// the request's canonical assay directly, requires the reply to carry
// the same outline (or, for a refusal, the 422 unsynthesizable reply),
// replays a returned pin program in the oracle on a rebuilt chip and
// requires it to equal the direct compile's program. With sim set it
// also runs the telemetry replay, as the server does after a compile.
// It returns the reference compile for later byte-identity checks.
func checkReply(tr *tracer, body []byte, status int, reply []byte, sim bool) (*core.Result, error) {
	canon, cfg, req, err := decodeAssay(tr, body)
	if err != nil {
		return nil, fmt.Errorf("request decode: %w", err)
	}
	ref, _, refErr := compileChain(tr, canon, cfg)
	var uns *core.ErrUnsynthesizable
	if refErr != nil {
		if !errors.As(refErr, &uns) {
			return nil, fmt.Errorf("direct compile of %s: %w", canon.Name, refErr)
		}
		var e struct{ Kind string }
		if status != 422 || json.Unmarshal(reply, &e) != nil || e.Kind != "unsynthesizable" {
			return nil, fmt.Errorf("%s on %s: want 422 unsynthesizable, got %d %.200s", canon.Name, req.Target, status, reply)
		}
		return nil, nil
	}
	if status != 200 {
		return nil, fmt.Errorf("%s on %s: status %d: %.200s", canon.Name, req.Target, status, reply)
	}
	var r service.CompileResponse
	if err := json.Unmarshal(reply, &r); err != nil {
		return nil, fmt.Errorf("reply decode: %w", err)
	}
	if got, want := outlineOfReply(&r), outlineOf(ref, nil); got != want {
		return nil, fmt.Errorf("%s on %s: reply %+v, direct compile %+v", canon.Name, req.Target, got, want)
	}
	if r.Sequence == nil {
		if req.Sequence {
			return nil, fmt.Errorf("%s on %s: sequence requested but missing", canon.Name, req.Target)
		}
		// Targets without a pin program are compared at schedule level:
		// the outline above, plus the oracle's binding check.
		sp := tr.begin(spVerify)
		_, err := oracle.VerifyCompiled(ref, oracle.Options{})
		tr.end(sp)
		return ref, err
	}
	prog, events, err := programOf(r.Sequence)
	if err != nil {
		return nil, err
	}
	if !sameProgram(ref, prog, events) {
		return nil, fmt.Errorf("%s on %s: reply program differs from the direct compile", canon.Name, req.Target)
	}
	rebuilt, hash, err := verifyProgram(tr, canon, cfg, r.Chip.W, r.Chip.H, prog, events, ref.Schedule)
	if err != nil {
		return nil, fmt.Errorf("%s on %s: oracle replay of the reply: %w", canon.Name, req.Target, err)
	}
	if r.Verification != nil && r.Verification.FootprintHash != hash {
		return nil, fmt.Errorf("%s on %s: footprint %s, server reported %s", canon.Name, req.Target, hash, r.Verification.FootprintHash)
	}
	if sim {
		if err := telemetryReplay(tr, rebuilt); err != nil {
			return nil, fmt.Errorf("telemetry replay: %w", err)
		}
	}
	return ref, nil
}

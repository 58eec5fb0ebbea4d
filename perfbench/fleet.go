package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"fppc/internal/dag"
	"fppc/internal/fleet"
	"fppc/internal/service"
)

// Fleet driver shape: jobs go in batches of fleetBatch, each followed by
// a reconcile pass and a tick of fleetTick schedule steps (so small jobs
// finish within a batch or two while large ones stay in flight), then an
// idle pass with nothing to place, as a control loop's periodic pass
// would run; after every fleetDegradeEvery-th batch the busiest chip is
// worn out by a seeded degrade and a migration pass runs.
const (
	fleetBatch        = 6
	fleetTick         = 20
	fleetDegradeEvery = 8
	fleetDegradeCells = 2
	// fleetPassS is the nominal time of one pass of the job sequence
	// on the reference box. A run replays the sequence
	// ceil(seconds/fleetPassS) times, each on a fresh server and fleet,
	// and reports per-batch medians over the passes.
	fleetPassS = 5
)

// fleetDriver replays one fleet_churn job sequence, either through the
// HTTP surface (submit and degrade) or directly (the traced replay).
type fleetDriver struct {
	f      *fleet.Fleet
	submit func(i int) (string, error)
	wear   func(chip string, seed int64) error
	tr     *tracer
	pr     *speedProbe
}

// fleetRun is what one pass of the job sequence observed.
type fleetRun struct {
	ids       []string
	lat       []float64 // submit to end of the placing pass, ms; -1 = never placed
	makespan  []int
	idle      []float64 // idle pass times, ms: the cost of job history alone
	batch     []float64 // batch times (opClock), ms: submits through the idle pass
	batchWall []float64 // the same batches' wall times, ms
	batchSeg  []int     // the speed probe's segment of each batch
	unchecked []string  // placements the oracle did not verify
}

// run drives the whole sequence: batches, reconcile passes, degrades
// and ticks.
func (d *fleetDriver) run(ctx context.Context, n int, seeds []int64) (*fleetRun, error) {
	fr := &fleetRun{ids: make([]string, n), lat: make([]float64, n), makespan: make([]int, n)}
	submitted := make([]time.Time, n)
	var pending []int
	batches := 0
	for lo := 0; lo < n; lo += fleetBatch {
		fr.batchSeg = append(fr.batchSeg, d.pr.tick())
		batchStart := startOp()
		hi := min(lo+fleetBatch, n)
		for i := lo; i < hi; i++ {
			d.tr.setOp(i)
			submitted[i] = time.Now()
			sp := d.tr.begin(spSubmit)
			id, err := d.submit(i)
			d.tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("submit job %d: %w", i, err)
			}
			fr.ids[i] = id
			fr.lat[i] = -1
			pending = append(pending, i)
		}
		sp := d.tr.begin(spReconcile)
		d.f.Reconcile(ctx)
		d.tr.end(sp)
		passEnd := time.Now()
		still := pending[:0]
		for _, i := range pending {
			st, _ := d.f.Job(fr.ids[i])
			if st.State == fleet.JobPending {
				still = append(still, i)
				continue
			}
			if st.State == fleet.JobPlaced || st.State == fleet.JobCompleted {
				fr.lat[i] = ms(passEnd.Sub(submitted[i]))
				fr.makespan[i] = st.Makespan
				if !st.Verified {
					fr.unchecked = append(fr.unchecked, st.ID)
				}
			}
		}
		pending = still
		batches++
		if batches%fleetDegradeEvery == 0 && len(seeds) > 0 {
			if victim := busiest(d.f); victim != "" {
				if err := d.wear(victim, seeds[0]); err != nil {
					return nil, fmt.Errorf("degrade %s: %w", victim, err)
				}
				sp := d.tr.begin(spMigrate)
				d.f.Reconcile(ctx)
				d.tr.end(sp)
			}
			seeds = seeds[1:]
		}
		sp = d.tr.begin(spTick)
		d.f.Tick(fleetTick)
		d.tr.end(sp)
		t0 := time.Now()
		d.f.Reconcile(ctx)
		fr.idle = append(fr.idle, ms(time.Since(t0)))
		fr.batchWall = append(fr.batchWall, ms(time.Since(batchStart.wall)))
		fr.batch = append(fr.batch, batchStart.ms())
	}
	return fr, nil
}

// warmUp submits one unperturbed PCR job, which no timed job shares,
// and runs it to completion: the fleet's set-up warm-up.
func warmUp(ctx context.Context, f *fleet.Fleet, submit func() error) error {
	if err := submit(); err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	f.Reconcile(ctx)
	f.Tick(1000)
	f.Reconcile(ctx)
	return nil
}

// busiest is the chip with the most placed jobs (lowest id on ties).
func busiest(f *fleet.Fleet) string {
	id, best := "", 0
	for _, c := range f.Chips() {
		if len(c.Jobs) > best {
			id, best = c.ID, len(c.Jobs)
		}
	}
	return id
}

// drain ticks and reconciles until no job is live, then returns the ids
// of jobs that ended failed (lost).
func drain(ctx context.Context, f *fleet.Fleet) []string {
	for iter := 0; iter < 1000; iter++ {
		live := false
		for _, j := range f.Jobs() {
			if j.State == fleet.JobPending || j.State == fleet.JobPlaced {
				live = true
				break
			}
		}
		if !live {
			break
		}
		f.Tick(1000)
		f.Reconcile(ctx)
	}
	var lost []string
	for _, j := range f.Jobs() {
		if j.State != fleet.JobCompleted {
			lost = append(lost, j.ID+":"+string(j.State)+" "+j.Error)
		}
	}
	return lost
}

// fleetPass is one pass's job sequence: a cycle of perturbed jobs in
// HTTP request form, and the seeds of its degrades.
type fleetPass struct {
	jobs   []*dag.Assay
	bodies []request
	seeds  []int64
}

// newFleetPass draws a pass: one cycle of the included shapes, laid out
// and perturbed by the seed's generator, every job a structure new to
// the run.
func newFleetPass(shapes []shape, rng *rand.Rand, seen map[string]bool) (*fleetPass, error) {
	include := func(sh shape) bool { return !fleetExcluded[sh.slug] }
	fp := &fleetPass{}
	// Large jobs go first, while every chip is fresh: placed late, after
	// the churn has worn out chip-01, the only chip that can host
	// Protein Split 6, that job is lost (on 4 of 10 seeds). For the same
	// reason a pass is a single cycle on a fresh fleet: over two cycles,
	// the second cycle's Protein Split 6 job is lost.
	for _, sl := range cycleSlots(shapes, nil, include, true, rng) {
		a, err := uniquePerturb(shapes[sl.shape].assay, rng, seen)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(a)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(service.FleetJobRequest{DAG: raw})
		if err != nil {
			return nil, err
		}
		fp.jobs = append(fp.jobs, a)
		fp.bodies = append(fp.bodies, request{shape: sl.shape, body: body})
	}
	fp.seeds = make([]int64, len(fp.jobs)/(fleetBatch*fleetDegradeEvery)+1)
	for i := range fp.seeds {
		fp.seeds[i] = rng.Int63()
	}
	return fp, nil
}

// runFleet is the fleet_churn workload: one driver submitting job
// batches over HTTP to a 5-chip scenario fleet, running its own
// reconcile passes and ticks, and wearing out the busiest chip every
// few batches to force migrations. A run makes several passes, each a
// cycle of its own drawn from the seed, on a fresh server and fleet.
func runFleet(p params) (*result, error) {
	res := newResult()
	shapes := loadShapes(fleetQuotaBase)
	rng := rand.New(rand.NewSource(p.seed))
	pcrFP, err := shapes[0].assay.Fingerprint()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{pcrFP: true}
	passes := make([]*fleetPass, cycleCount(p.seconds, fleetPassS))
	for i := range passes {
		if passes[i], err = newFleetPass(shapes, rng, seen); err != nil {
			return nil, err
		}
	}

	warmRaw, err := json.Marshal(shapes[0].assay)
	if err != nil {
		return nil, err
	}
	warmBody, err := json.Marshal(service.FleetJobRequest{DAG: warmRaw})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	warm := func(h *harness) error {
		return warmUp(ctx, h.fleet, func() error {
			st, b, err := h.post("/fleet/jobs", warmBody)
			if err == nil && st != http.StatusAccepted {
				err = fmt.Errorf("status %d: %.200s", st, b)
			}
			return err
		})
	}
	httpDriver := func(h *harness, fp *fleetPass, pr *speedProbe) *fleetDriver {
		return &fleetDriver{
			f:  h.fleet,
			pr: pr,
			submit: func(i int) (string, error) {
				st, b, err := h.post("/fleet/jobs", fp.bodies[i].body)
				if err != nil {
					return "", err
				}
				var js fleet.JobStatus
				if st != http.StatusAccepted || json.Unmarshal(b, &js) != nil {
					return "", fmt.Errorf("status %d: %.200s", st, b)
				}
				return js.ID, nil
			},
			wear: func(chip string, seed int64) error {
				body, err := json.Marshal(service.FleetDegradeRequest{Chip: chip, Seed: seed, Cells: fleetDegradeCells})
				if err != nil {
					return err
				}
				st, b, err := h.post("/debug/fleet/degrade", body)
				if err == nil && st != http.StatusOK {
					err = fmt.Errorf("status %d: %.200s", st, b)
				}
				return err
			},
		}
	}
	h, err := setupServer(res, true, warm)
	if err != nil {
		return nil, err
	}
	defer func() { h.close() }()

	pr := newSpeedProbe()
	var runs []*fleetRun
	var placed, migrated, failed int
	for pass, fp := range passes {
		if pass > 0 {
			h.close()
			next, err := startHarness(true)
			if err != nil {
				return nil, err
			}
			h = next
			if err := warm(h); err != nil {
				return nil, err
			}
		}
		// The runtime metrics cover the last pass, which leaves its
		// server and fleet alive for the live-heap reading.
		start := startPhase()
		fr, err := httpDriver(h, fp, pr).run(ctx, len(fp.jobs), fp.seeds)
		if err != nil {
			return nil, err
		}
		runs = append(runs, fr)
		res.attempted += len(fp.jobs)
		placed, migrated, failed, _ = h.fleet.Counts()
		if pass == len(passes)-1 {
			res.phaseRuntime(start, readRuntime(), placedJobs(fr), heldBytes(fp.bodies, nil))
		}
		// Output checks: every placement oracle-verified on its chip,
		// at least one migration, and no job lost once the fleet
		// drains.
		for _, id := range fr.unchecked {
			res.fail("pass %d: job %s placed without oracle verification", pass, id)
		}
		for _, l := range drain(ctx, h.fleet) {
			res.fail("pass %d: lost job %s", pass, l)
		}
		if migrated == 0 {
			res.problem("fleet_churn pass %d forced no migration", pass)
		}
	}
	fleetStats(res, runs, pr.scales(), passes, shapes)
	res.layer["bench.probe_ms"] = pr.probeMS()
	res.layer["fleet.placed"] = float64(placed)
	res.layer["fleet.migrated"] = float64(migrated)
	res.layer["fleet.failed"] = float64(failed)

	if p.trace {
		last := passes[len(passes)-1]
		if err := traceFleet(p, res, shapes[0].assay, last.jobs, last.seeds, placed, migrated); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// placedJobs counts the jobs a pass placed.
func placedJobs(fr *fleetRun) int {
	n := 0
	for _, l := range fr.lat {
		if l >= 0 {
			n++
		}
	}
	return n
}

// fleetStats fills the latency, throughput and assay-time metrics of a
// fleet run from all its passes, times scaled to reference-box time.
// The throughput is the jobs placed over the scaled batch times.
func fleetStats(res *result, runs []*fleetRun, scales []float64, passes []*fleetPass, shapes []shape) {
	var all []float64
	groups := map[string][]float64{}
	placed, busy, makespan := 0, 0.0, 0.0
	for r, fr := range runs {
		for b, d := range fr.batch {
			busy += d * scales[fr.batchSeg[b]]
		}
		for i, l := range fr.lat {
			if l < 0 {
				continue
			}
			// A job's latency lies within its batch, and shrinks with
			// it from wall time to opClock time.
			b := i / fleetBatch
			l *= fr.batch[b] / fr.batchWall[b] * scales[fr.batchSeg[b]]
			all = append(all, l)
			slug := shapes[passes[r].bodies[i].shape].slug
			groups[slug] = append(groups[slug], l)
			placed++
			makespan += float64(fr.makespan[i])
		}
	}
	res.latencies(all, groups)
	res.e2e["ops_per_s"] = float64(placed) / busy * 1000
	res.e2e["assay_s_total"] = makespan
	// Reconcile cost as history grows: the median idle pass of the last
	// tenth of a pass over that of the first tenth, for the last pass.
	// Idle passes place nothing, so the job mix of their batches does
	// not enter.
	last := runs[len(runs)-1]
	n := len(last.idle)
	k := max(1, n/10)
	res.layer["fleet.reconcile_growth"] = median(last.idle[n-k:]) / median(last.idle[:k])
}

// traceFleet replays the job sequence directly against fresh fleets,
// untraced then traced, with spans around Submit, Reconcile (placement
// and migration passes) and Tick.
func traceFleet(p params, res *result, warm *dag.Assay, jobs []*dag.Assay, seeds []int64, placed, migrated int) error {
	replay := func(tr *tracer) (time.Duration, error) {
		specs, err := fleet.ScenarioSpecs(5)
		if err != nil {
			return 0, err
		}
		f, err := fleet.New(fleet.Config{Chips: specs})
		if err != nil {
			return 0, err
		}
		if err := warmUp(context.Background(), f, func() error {
			_, err := f.Submit(warm, "")
			return err
		}); err != nil {
			return 0, err
		}
		d := &fleetDriver{
			f: f, tr: tr,
			submit: func(i int) (string, error) {
				st, err := f.Submit(jobs[i], "")
				return st.ID, err
			},
			wear: func(chip string, seed int64) error {
				_, err := f.AdvanceWear(chip, seed, ratedLife(f, chip), fleetDegradeCells)
				return err
			},
		}
		t0 := time.Now()
		if _, err := d.run(context.Background(), len(jobs), seeds); err != nil {
			return 0, err
		}
		took := time.Since(t0)
		if pl, mg, _, _ := f.Counts(); pl != placed || mg != migrated {
			res.problem("fleet replay diverged: %d placed, %d migrated; HTTP run %d, %d", pl, mg, placed, migrated)
		}
		return took, nil
	}
	untraced, err := replay(nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := replay(tr)
	if err != nil {
		return err
	}
	res.layer["bench.trace_overhead"] = overhead(ms(untraced), ms(traced))
	sum := map[string][]float64{}
	for _, s := range tr.spans {
		sum[s.Name] = append(sum[s.Name], ms(s.Dur))
	}
	res.layer["fleet.submit_ms"] = mean(sum[spSubmit])
	res.layer["fleet.reconcile_ms"] = mean(sum[spReconcile])
	res.layer["fleet.migrate_ms"] = mean(sum[spMigrate])
	res.layer["fleet.tick_ms"] = mean(sum[spTick])
	return writeChrome(p.traceOut, tr.spans)
}

// ratedLife is the chip's per-electrode actuation budget, the wear
// POST /debug/fleet/degrade applies by default.
func ratedLife(f *fleet.Fleet, chip string) int64 {
	for _, c := range f.Chips() {
		if c.ID == chip {
			return c.RatedLife
		}
	}
	return 0
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fppc/internal/asl"
	"fppc/internal/core"
	"fppc/internal/dag"
	"fppc/internal/fleet"
	"fppc/internal/obs"
	"fppc/internal/service"
)

// clients is the number of client goroutines and connections: at most
// one per CPU, and at most two, so every box runs the same loop shape.
var clients = min(2, runtime.NumCPU())

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// harness is an in-process service.Server on a loopback listener,
// optionally with a chip fleet attached, and a client limited to
// `clients` connections.
type harness struct {
	fleet  *fleet.Fleet
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

// startHarness builds the server with the shipped defaults
// (service.Config{}), plus a 5-chip scenario fleet when asked.
func startHarness(withFleet bool) (*harness, error) {
	cfg := service.Config{}
	var f *fleet.Fleet
	if withFleet {
		specs, err := fleet.ScenarioSpecs(5)
		if err != nil {
			return nil, err
		}
		ob := obs.NewMetricsOnly()
		if f, err = fleet.New(fleet.Config{Chips: specs, Obs: ob}); err != nil {
			return nil, err
		}
		cfg.Fleet, cfg.Obs = f, ob
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{
		fleet: f,
		hs:    &http.Server{Handler: service.New(cfg)},
		url:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
		}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return h, nil
}

// close shuts the server down and waits for its goroutine.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx) // a timeout here leaves only idle keep-alives
	<-h.done
	h.client.CloseIdleConnections()
}

func (h *harness) post(path string, body []byte) (int, []byte, error) {
	resp, err := h.client.Post(h.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (h *harness) health() (service.Health, error) {
	var hl service.Health
	resp, err := h.client.Get(h.url + "/healthz")
	if err != nil {
		return hl, err
	}
	defer resp.Body.Close()
	return hl, json.NewDecoder(resp.Body).Decode(&hl)
}

// compileBody renders a /compile request: auto-grow on, a pin-program
// sequence on targets that emit one, and the assay as DAG JSON or ASL.
func compileBody(a *dag.Assay, target string, useASL, verify bool) ([]byte, error) {
	spec, ok := core.LookupTargetName(target)
	if !ok {
		return nil, fmt.Errorf("perfbench: unknown target %q", target)
	}
	req := service.CompileRequest{Target: target, Grow: true, Verify: verify, Sequence: spec.Capabilities.PinProgram}
	var err error
	if useASL {
		req.ASL, err = asl.Format(a)
	} else {
		req.DAG, err = json.Marshal(a)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(req)
}

// outcome is one client-side request record.
type outcome struct {
	status int
	reply  []byte
	lat    time.Duration
	seg    int // the speed probe's segment the request was sent in
	err    error
}

// meta is the part of a reply the layer metrics read.
type meta struct {
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// servedStats fills the latency, hit-ratio and response-size metrics of
// a served run, latencies scaled to reference-box time, and returns each
// op's reply meta and the scaled latencies by shape and target.
func servedStats(res *result, reqs []request, outs []outcome, shapes []shape, scales []float64) ([]meta, map[string][]float64) {
	all := make([]float64, len(outs))
	groups := map[string][]float64{}
	metas := make([]meta, len(outs))
	hits, bytesOut := 0, 0
	for i, o := range outs {
		all[i] = ms(o.lat) * scales[o.seg]
		key := shapes[reqs[i].shape].slug + "." + reqs[i].target
		groups[key] = append(groups[key], all[i])
		if o.status == http.StatusOK {
			_ = json.Unmarshal(o.reply, &metas[i]) // a bad reply fails its output check
		}
		if metas[i].Cached {
			hits++
		}
		bytesOut += len(o.reply)
	}
	res.latencies(all, groups)
	res.layer["service.hit_ratio"] = float64(hits) / float64(len(outs))
	res.layer["service.response_kb"] = float64(bytesOut) / 1024 / float64(len(outs))
	return metas, groups
}

// memoRatio is the memo hit share over a phase, from /healthz deltas.
func memoRatio(before, after service.Health) float64 {
	h := float64(after.MemoHits - before.MemoHits)
	m := float64(after.MemoMisses - before.MemoMisses)
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// heldBytes is what the benchmark itself keeps alive: request bodies
// and recorded replies.
func heldBytes(reqs []request, outs []outcome) int {
	n := 0
	for i := range reqs {
		n += cap(reqs[i].body)
	}
	for _, o := range outs {
		n += cap(o.reply)
	}
	return n
}

// parallel runs fn(worker, i) for i in [0,n) on `workers` goroutines
// and waits for them.
func parallel(workers, n int, fn func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// coldCycleS is the nominal serve_cold cycle time on the reference box.
const coldCycleS = 22

// runCold is the serve_cold workload: a closed loop of one caller, each
// request a structure the server has never seen. One caller, not two:
// with two callers and the collector sharing two cores, which large
// misses overlap changes from run to run, and so did every end-to-end
// figure, by up to a quarter.
func runCold(p params) (*result, error) {
	res := newResult()
	shapes := loadShapes(servedQuotaBase)
	rng := rand.New(rand.NewSource(p.seed))
	seen := map[string]bool{}
	var warmBodies [][]byte
	for _, t := range targetNames() {
		body, err := compileBody(shapes[0].assay, t, false, true)
		if err != nil {
			return nil, err
		}
		warmBodies = append(warmBodies, body)
	}
	for _, sh := range shapes {
		fp, err := sh.assay.Fingerprint()
		if err != nil {
			return nil, err
		}
		seen[fp] = true
	}
	var reqs []request
	for c := cycleCount(p.seconds, coldCycleS); c > 0; c-- {
		for _, sl := range cycleSlots(shapes, targetNames(), nil, false, rng) {
			a, err := uniquePerturb(shapes[sl.shape].assay, rng, seen)
			if err != nil {
				return nil, err
			}
			body, err := compileBody(a, sl.target, false, true)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, request{shape: sl.shape, target: sl.target, body: body})
		}
	}

	// Warm-up: one unperturbed PCR compile per target, which no timed
	// request shares, to open the connections and touch every code path.
	h, err := setupServer(res, false, func(h *harness) error {
		for _, body := range warmBodies {
			if st, b, err := h.post("/compile", body); err != nil || st != http.StatusOK {
				return fmt.Errorf("warm-up: status %d %v: %.200s", st, err, b)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer h.close()
	before, err := h.health()
	if err != nil {
		return nil, err
	}
	outs := make([]outcome, len(reqs))
	start := startPhase()
	pr := newSpeedProbe()
	for i := range reqs {
		seg := pr.tick()
		t0 := startOp()
		st, b, err := h.post("/compile", reqs[i].body)
		lat := time.Duration(t0.ms() * float64(time.Millisecond))
		outs[i] = outcome{status: st, reply: b, lat: lat, seg: seg, err: err}
	}
	scales := pr.scales()
	end := readRuntime()
	res.attempted = len(reqs)
	res.phaseRuntime(start, end, len(reqs), heldBytes(reqs, outs))
	res.layer["bench.probe_ms"] = pr.probeMS()
	after, err := h.health()
	if err != nil {
		return nil, err
	}
	metas, groups := servedStats(res, reqs, outs, shapes, scales)
	res.e2e["ops_per_s"] = medianThroughput(groups)
	res.layer["core.memo_hit_ratio"] = memoRatio(before, after)
	if hr := res.layer["service.hit_ratio"]; hr != 0 || after.MemoHits != before.MemoHits {
		res.problem("serve_cold is not all misses: hit ratio %.4f, memo hits %d", hr, after.MemoHits-before.MemoHits)
	}
	res.e2e["assay_s_total"] = replyAssaySeconds(outs)

	check := func(tr *tracer, i int) error {
		o := outs[i]
		if o.err != nil {
			return o.err
		}
		// The telemetry replay only feeds sim.replay_ms, so only traced
		// runs repeat it.
		_, err := checkReply(tr, reqs[i].body, o.status, o.reply, p.trace)
		return err
	}
	checkAll(p, res, len(reqs), check, func(spans []span) {
		servedLayers(res, spans, reqs, outs, metas, shapes)
	})
	return res, nil
}

// replyAssaySeconds sums the simulated assay time of successful replies.
func replyAssaySeconds(outs []outcome) float64 {
	total := 0.0
	for _, o := range outs {
		if o.status != http.StatusOK {
			continue
		}
		var r struct {
			Stats struct {
				TotalSeconds float64 `json:"total_seconds"`
			} `json:"stats"`
		}
		if json.Unmarshal(o.reply, &r) == nil {
			total += r.Stats.TotalSeconds
		}
	}
	return total
}

// setupServer builds the harness setupReps times, running warm on each
// (nil: nothing to warm), and keeps the last one; setup_s is the median
// time from construction to ready.
func setupServer(res *result, withFleet bool, warm func(h *harness) error) (*harness, error) {
	var h *harness
	err := timeSetup(res, func() error {
		if h != nil {
			h.close()
		}
		var err error
		if h, err = startHarness(withFleet); err != nil {
			return err
		}
		if warm != nil {
			if err := warm(h); err != nil {
				h.close()
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// timeSetup runs a set-up setupReps times and records setup_s: the
// median of its times, each scaled to reference-box time by the speed
// probe sampled between the repetitions.
func timeSetup(res *result, setup func() error) error {
	pr := newSpeedProbe()
	times := make([]float64, setupReps)
	segs := make([]int, setupReps)
	for rep := range times {
		if rep > 0 {
			pr.sample()
		}
		segs[rep] = rep
		t0 := startOp()
		if err := setup(); err != nil {
			return err
		}
		times[rep] = t0.ms() / 1000
	}
	scaled := scaleAll(times, segs, pr.scales())
	res.e2e["setup_s"] = median(scaled)
	res.note("setup %.3fs at reference speed (median of %.3f; wall %.3f)", median(scaled), scaled, times)
	return nil
}

// checkAll runs the output check of every op on `clients` goroutines,
// outside any timed phase; a failed check fails its op. A traced run
// checks twice — untraced, then traced — and reports the difference as
// the tracing overhead; layers receives the traced spans.
func checkAll(p params, res *result, n int, check func(tr *tracer, i int) error, layers func([]span)) {
	t0 := time.Now()
	defer func() { res.note("checks %.2fs", time.Since(t0).Seconds()) }()
	untraced := make([]time.Duration, n)
	errs := make([]error, n)
	parallel(clients, n, func(_, i int) {
		t0 := time.Now()
		errs[i] = check(nil, i)
		untraced[i] = time.Since(t0)
	})
	for i, err := range errs {
		if err != nil {
			res.fail("op %d: %v", i, err)
		}
	}
	if !p.trace {
		return
	}
	trs := make([]*tracer, clients)
	for w := range trs {
		trs[w] = newTracer()
	}
	parallel(clients, n, func(w, i int) {
		tr := trs[w]
		tr.setOp(i)
		root := tr.begin(spOp)
		_ = check(tr, i) // same inputs; the untraced pass reported any failure
		tr.end(root)
	})
	spans := mergeSpans(trs)
	var u, t time.Duration
	for i := range untraced {
		u += untraced[i]
	}
	for _, s := range spans {
		if s.Name == spOp {
			t += s.Dur
		}
	}
	res.layer["bench.trace_overhead"] = overhead(ms(u), ms(t))
	layers(spans)
	if err := writeChrome(p.traceOut, spans); err != nil {
		res.problem("trace write: %v", err)
	}
}

// mergeSpans concatenates per-goroutine span lists, rebasing parents.
func mergeSpans(trs []*tracer) []span {
	var out []span
	for _, tr := range trs {
		off := len(out)
		for _, s := range tr.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// servedLayers derives the per-layer metrics of a served workload from
// its traced check spans: layer self times per op, canonicalization per
// shape, and the split of each request's latency into the traced
// prepare layers (decode or parse, validate, fingerprint, canonicalize),
// the traced compile-side layers, the server residual (elapsed_ms minus
// the compile-side layers: cache, singleflight, queue, journal, entry
// building) and transport (client latency minus elapsed_ms minus the
// prepare layers: HTTP, request decode, response encoding and write).
func servedLayers(res *result, spans []span, reqs []request, outs []outcome, metas []meta, shapes []shape) {
	fillLayers(res, spans, len(reqs))
	canon := map[string][]float64{}
	prepare := make([]time.Duration, len(reqs))
	layerSum := opLayerSums(spans)
	attempts, useful := 0, 0
	for _, s := range spans {
		switch s.Name {
		case spCanonical:
			slug := shapes[reqs[s.Op].shape].slug
			canon[slug] = append(canon[slug], ms(s.Dur))
			prepare[s.Op] += s.Dur
		case spDecode, spParse, spFingerprint:
			prepare[s.Op] += s.Dur
		case spNewChip:
			attempts++
		case spRoute:
			if !s.Failed {
				useful++
			}
		}
	}
	// The first validate of an op is the prepare-side one; the compile
	// chain's validate of the canonical form comes after it.
	seenValidate := map[int]bool{}
	for _, s := range spans {
		if s.Name == spValidate && !seenValidate[s.Op] {
			seenValidate[s.Op] = true
			prepare[s.Op] += s.Dur
		}
	}
	for slug, xs := range canon {
		res.layer["dag.canonical_ms."+slug] = median(xs)
	}
	var transport, resid []float64
	for i, o := range outs {
		if o.status != http.StatusOK {
			continue
		}
		el := metas[i].ElapsedMS
		transport = append(transport, ms(o.lat)-el-ms(prepare[i]))
		resid = append(resid, el-ms(layerSum[i]-prepare[i]))
	}
	res.layer["service.transport_ms"] = mean(transport)
	res.layer["service.residual_ms"] = mean(resid)
	if attempts > 0 {
		res.layer["core.size_attempts"] = float64(attempts) / float64(len(reqs))
		res.layer["core.size_useful_ratio"] = float64(useful) / float64(attempts)
	}
}

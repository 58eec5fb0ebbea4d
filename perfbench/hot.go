package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fppc/internal/core"
	"fppc/internal/dag"
)

// hotRate is serve_hot's fixed offered rate in requests per second,
// about a third of the mix's closed-loop capacity on the reference box.
const hotRate = 80.0

// genLateBound is the generator lateness (p99) beyond which a serve_hot
// run is invalid: the load was not offered on schedule, so its
// latencies say nothing about the server.
const genLateBound = 50 * time.Millisecond

// hotMinCycles is the fewest cycles a serve_hot run performs. A cycle
// holds a single Protein Split 7 request, and the tail percentile of a
// single cycle falls among a handful of large requests; two cycles put
// it among twice as many and halve the run-to-run jitter.
const hotMinCycles = 2

// renamed reports the fixed share of serve_hot requests sent under a
// fresh assay name: every tenth copy of a shape. The name is part of
// the response-cache key but not of the memo key, so these miss the
// cache and hit the memo.
func renamed(sl slot) bool { return sl.copy%10 == 9 }

// renamedName is the fresh name of renamed request i.
func renamedName(a *dag.Assay, i int) string { return fmt.Sprintf("%s #%d", a.Name, i) }

// hotKey names a working-set entry.
type hotKey struct {
	shape  int
	target string
}

// hotVariant renders one resubmission of a working-set assay: renamed
// (and renumbered), or renumbered DAG JSON, relabeled and renumbered DAG
// JSON, or ASL text, the form drawn by the seed.
func hotVariant(a *dag.Assay, sl slot, i int, rng *rand.Rand) ([]byte, error) {
	v, err := a.Renumbered(rng.Perm(a.Len()))
	if err != nil {
		return nil, err
	}
	if renamed(sl) {
		v.Name = renamedName(a, i)
		return compileBody(v, sl.target, false, false)
	}
	switch rng.Intn(3) {
	case 0:
		return compileBody(v, sl.target, false, false)
	case 1:
		tag := rng.Intn(1000)
		return compileBody(v.Relabeled(func(old string) string { return fmt.Sprintf("%s~%d", old, tag) }), sl.target, false, false)
	default:
		return compileBody(v, sl.target, true, false)
	}
}

// runHot is the serve_hot workload: an open loop at hotRate resubmitting
// a warmed working set in renumbered, relabeled, ASL and renamed forms.
func runHot(p params) (*result, error) {
	res := newResult()
	shapes := loadShapes(servedQuotaBase)
	rng := rand.New(rand.NewSource(p.seed))
	tGen := time.Now()
	first := cycleSlots(shapes, targetNames(), nil, false, rng)
	cycleLen := len(first)
	cycles := max(hotMinCycles, cycleCount(p.seconds, float64(cycleLen)/hotRate))
	var reqs []request
	var slots []slot
	for c := 0; c < cycles; c++ {
		cyc := first
		if c > 0 {
			cyc = cycleSlots(shapes, targetNames(), nil, false, rng)
		}
		for _, sl := range cyc {
			body, err := hotVariant(shapes[sl.shape].assay, sl, len(reqs), rng)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, request{shape: sl.shape, target: sl.target, body: body})
			slots = append(slots, sl)
		}
	}

	res.note("inputs %.2fs", time.Since(tGen).Seconds())
	// The working set: every (shape, target) of a cycle, warmed by its
	// first compile. Set-up ends when all are cached.
	var keys []hotKey
	seenKey := map[hotKey]bool{}
	for _, sl := range first {
		k := hotKey{sl.shape, sl.target}
		if !seenKey[k] {
			seenKey[k] = true
			keys = append(keys, k)
		}
	}
	warmBodies := make([]request, len(keys))
	for i, k := range keys {
		body, err := compileBody(shapes[k.shape].assay, k.target, false, false)
		if err != nil {
			return nil, err
		}
		warmBodies[i] = request{shape: k.shape, target: k.target, body: body}
	}
	warm := make([]outcome, len(keys))
	h, err := setupServer(res, false, func(h *harness) error {
		parallel(clients, len(keys), func(_, i int) {
			st, b, err := h.post("/compile", warmBodies[i].body)
			warm[i] = outcome{status: st, reply: b, err: err}
		})
		for i, o := range warm {
			if o.err != nil {
				return fmt.Errorf("warm-up %s: %w", shapes[keys[i].shape].slug, o.err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer h.close()
	keyIndex := map[hotKey]int{}
	for i, k := range keys {
		keyIndex[k] = i
	}

	before, err := h.health()
	if err != nil {
		return nil, err
	}
	outs := make([]outcome, len(reqs))
	late := make([]float64, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends, so the generator never blocks
	start := startPhase()
	due := dueTimes(start.at, len(reqs), hotRate)
	segs := make([]int, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				st, b, err := h.post("/compile", reqs[i].body)
				outs[i] = outcome{status: st, reply: b, lat: dueLatency(due[i], time.Now()), seg: segs[i], err: err}
			}
		}()
	}
	// The generator owns the speed probe and samples it in the gaps
	// between sends.
	pr := newSpeedProbe()
	for i := range reqs {
		time.Sleep(time.Until(due[i]))
		late[i] = ms(time.Since(due[i]))
		segs[i] = len(pr.samples) - 1
		queue <- i
		pr.tick()
	}
	close(queue)
	wg.Wait()
	scales := pr.scales()
	end := readRuntime()
	res.attempted = len(reqs)
	res.phaseRuntime(start, end, len(reqs), heldBytes(reqs, outs)+heldBytes(warmBodies, warm))
	res.layer["bench.probe_ms"] = pr.probeMS()
	// An open loop completes what it is offered; the wall-clock rate
	// falls below hotRate only when the server falls behind.
	res.e2e["ops_per_s"] = res.layer["bench.wall_ops_per_s"]
	after, err := h.health()
	if err != nil {
		return nil, err
	}
	metas, _ := servedStats(res, reqs, outs, shapes, scales)
	res.layer["core.memo_hit_ratio"] = memoRatio(before, after)

	// Self-checks: the run is the workload it claims to be. Refusals
	// (enhanced-fppc on In-Vitro 3-5) are never cached and recompile
	// past the memo; every other renamed request is a memo hit; all
	// else hits the response cache.
	refused, memoHits := 0, 0
	for i, sl := range slots {
		switch {
		case expectRefusal(shapes[reqs[i].shape].slug, reqs[i].target):
			refused++
		case renamed(sl):
			memoHits++
		}
	}
	wantHit := float64(len(reqs)-refused-memoHits) / float64(len(reqs))
	if hr := res.layer["service.hit_ratio"]; hr != wantHit {
		res.problem("serve_hot hit ratio %.4f, designed %.4f", hr, wantHit)
	}
	gotHits, gotMisses := int(after.MemoHits-before.MemoHits), int(after.MemoMisses-before.MemoMisses)
	if gotHits != memoHits || gotMisses != refused {
		res.problem("serve_hot memo: %d hits and %d misses, designed %d and %d", gotHits, gotMisses, memoHits, refused)
	}
	_, lateP99 := percentile(late, 99)
	res.layer["bench.gen_late_ms"] = lateP99
	if lateP99 > ms(genLateBound) {
		res.problem("invalid run: generator p99 lateness %.1f ms exceeds %v", lateP99, genLateBound)
	}
	res.e2e["assay_s_total"] = replyAssaySeconds(warm)

	// Output checks: each working-set entry's first reply is checked in
	// full against a direct compile; every timed reply must equal it
	// byte for byte apart from the per-request fields.
	tRef := time.Now()
	refs := make([]*core.Result, len(keys))
	refErrs := make([]error, len(keys))
	parallel(clients, len(keys), func(_, i int) {
		refs[i], refErrs[i] = checkReply(nil, warmBodies[i].body, warm[i].status, warm[i].reply, false)
	})
	for i, err := range refErrs {
		if err != nil {
			res.problem("working-set entry %s.%s: %v", shapes[keys[i].shape].slug, keys[i].target, err)
		}
	}
	res.note("working-set checks %.2fs", time.Since(tRef).Seconds())
	refOf := map[hotKey]*core.Result{}
	for i, k := range keys {
		refOf[k] = refs[i]
	}
	check := func(tr *tracer, i int) error {
		o := outs[i]
		if o.err != nil {
			return o.err
		}
		k := hotKey{reqs[i].shape, reqs[i].target}
		if p.trace {
			// Replay what the server does for a hit: decode or parse,
			// validate, fingerprint and canonicalize; for a memo hit,
			// also the telemetry replay.
			if _, _, _, err := decodeAssay(tr, reqs[i].body); err != nil {
				return err
			}
			if ref := refOf[k]; renamed(slots[i]) && ref != nil && ref.Routing.Program != nil {
				if err := telemetryReplay(tr, ref); err != nil {
					return err
				}
			}
		}
		name := ""
		if renamed(slots[i]) {
			name = renamedName(shapes[k.shape].assay, i)
		}
		first := warm[keyIndex[k]]
		if o.status != first.status {
			return fmt.Errorf("%s on %s: status %d, first reply %d", shapes[k.shape].slug, k.target, o.status, first.status)
		}
		if err := sameReply(first.reply, o.reply, shapes[k.shape].assay.Name, name); err != nil {
			return fmt.Errorf("%s on %s: %w", shapes[k.shape].slug, k.target, err)
		}
		return nil
	}
	checkAll(p, res, len(reqs), check, func(spans []span) {
		servedLayers(res, spans, reqs, outs, metas, shapes)
	})
	return res, nil
}

// percentile returns the p-th percentile (nearest rank) of xs.
func percentile(xs []float64, p float64) (int, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	i := int(p / 100 * float64(len(s)-1))
	return i, s[i]
}

// perRequest lists the reply fields that differ by request.
var perRequest = []string{"request_id", "elapsed_ms", "cached"}

// sameReply requires got to equal want byte for byte in every top-level
// field except the per-request ones. A renamed request (rename != "")
// may differ from want only by its assay name.
func sameReply(want, got []byte, origName, rename string) error {
	var w, g map[string]json.RawMessage
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Errorf("first reply: %w", err)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("reply: %w", err)
	}
	for _, f := range perRequest {
		delete(w, f)
		delete(g, f)
	}
	if rename != "" {
		for f, v := range g {
			g[f] = bytes.Replace(v, []byte(rename), []byte(origName), -1)
		}
	}
	if len(w) != len(g) {
		return fmt.Errorf("reply has %d fields, first reply %d", len(g), len(w))
	}
	for f, wv := range w {
		if !bytes.Equal(wv, g[f]) {
			return fmt.Errorf("field %q differs from the first reply", f)
		}
	}
	return nil
}

package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestQuotaTable(t *testing.T) {
	for _, base := range []float64{servedQuotaBase, fleetQuotaBase} {
		shapes := loadShapes(base)
		if len(shapes) != 13 {
			t.Fatalf("base %v: %d shapes, want the 13 Table 1 assays", base, len(shapes))
		}
		for _, sh := range shapes {
			n := float64(sh.assay.Len())
			if sh.quota < 1 {
				t.Errorf("base %v: %s quota %d, want at least 1", base, sh.slug, sh.quota)
			}
			if want := math.Max(1, math.Round(base/n)); float64(sh.quota) != want {
				t.Errorf("base %v: %s (%v nodes) quota %d, want %v", base, sh.slug, n, sh.quota, want)
			}
		}
	}
	served := loadShapes(servedQuotaBase)
	if q := served[len(served)-1].quota; q != 1 {
		t.Errorf("ps7 quota %d at the served base, want exactly 1", q)
	}
	if q := served[0].quota; q != 168 {
		t.Errorf("pcr quota %d at the served base, want 168 (2686/16)", q)
	}
}

type slotKey struct {
	shape, copy int
	target      string
}

func multiset(slots []slot) []slotKey {
	out := make([]slotKey, len(slots))
	for i, s := range slots {
		out[i] = slotKey{s.shape, s.copy, s.target}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.shape != b.shape {
			return a.shape < b.shape
		}
		return a.copy < b.copy
	})
	return out
}

func TestCycleSlotsPerSeed(t *testing.T) {
	shapes := loadShapes(servedQuotaBase)
	targets := []string{"fppc", "da", "enhanced-fppc"}
	cycle := func(seed int64) []slot {
		return cycleSlots(shapes, targets, nil, false, rand.New(rand.NewSource(seed)))
	}
	a1, a2, b := cycle(1), cycle(1), cycle(2)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("the same seed gave different cycles")
	}
	if reflect.DeepEqual(a1, b) {
		t.Fatal("different seeds gave the same order")
	}
	if !reflect.DeepEqual(multiset(a1), multiset(b)) {
		t.Fatal("different seeds gave different size mixes")
	}
	total := 0
	for _, sh := range shapes {
		total += sh.quota
	}
	if len(a1) != total {
		t.Fatalf("cycle has %d slots, quotas sum to %d", len(a1), total)
	}
	lastLarge := 0
	for i := range a1 {
		if shapes[a1[i].shape].assay.Len() >= largeNodes {
			lastLarge = i
			if a1[i] != b[i] {
				t.Errorf("slot %d: large shape %s moved between seeds", i, shapes[a1[i].shape].slug)
			}
		}
	}
	if shapes[a1[lastLarge].shape].slug != "ps7" {
		t.Errorf("last large slot is %s, want ps7 (smallest first)", shapes[a1[lastLarge].shape].slug)
	}

	skipPS7 := cycleSlots(shapes, nil, func(sh shape) bool { return !fleetExcluded[sh.slug] }, true, rand.New(rand.NewSource(1)))
	for _, sl := range skipPS7 {
		if shapes[sl.shape].slug == "ps7" || sl.target != "" {
			t.Fatalf("fleet cycle slot %+v: want no ps7 and no target", sl)
		}
	}
}

func TestUniquePerturb(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := loadShapes(servedQuotaBase)[0].assay
	fp0, _ := a.Fingerprint()
	seen := map[string]bool{fp0: true}
	for i := 0; i < 400; i++ {
		p, err := uniquePerturb(a, rng, seen)
		if err != nil {
			t.Fatal(err)
		}
		if p.Len() != a.Len() {
			t.Fatal("perturbation changed the node count")
		}
	}
	if len(seen) != 401 {
		t.Fatalf("%d distinct fingerprints, want 401", len(seen))
	}
}

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to exercise the sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		value     float64
		pct       float64
		beyondMin int
	}{
		{n: 5, value: 5, pct: 100},
		{n: 10, value: 10, pct: 100},
		{n: 11, value: 1, pct: 100.0 / 11, beyondMin: 10},
		{n: 100, value: 90, pct: 90, beyondMin: 10},
		{n: 1000, value: 990, pct: 99, beyondMin: 10},
	} {
		xs := seq(tc.n)
		v, p := tail(xs)
		if v != tc.value || math.Abs(p-tc.pct) > 1e-9 {
			t.Errorf("n=%d: tail %v at p%v, want %v at p%v", tc.n, v, p, tc.value, tc.pct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < tc.beyondMin {
			t.Errorf("n=%d: %d samples beyond the tail, want at least %d", tc.n, beyond, tc.beyondMin)
		}
	}
	if v, p := tail(nil); v != 0 || p != 0 {
		t.Errorf("empty sample: %v at p%v", v, p)
	}
}

func TestOpenLoopDueLatency(t *testing.T) {
	start := time.Unix(1000, 0)
	due := dueTimes(start, 4, 25)
	for i, d := range due {
		if want := start.Add(time.Duration(i) * 40 * time.Millisecond); !d.Equal(want) {
			t.Errorf("due[%d] = %v, want %v", i, d.Sub(start), want.Sub(start))
		}
	}
	// A request a stall delayed by 30 ms and then served in 2 ms took
	// 32 ms, not 2 ms.
	sent := due[2].Add(30 * time.Millisecond)
	done := sent.Add(2 * time.Millisecond)
	if got := dueLatency(due[2], done); got != 32*time.Millisecond {
		t.Errorf("latency %v, want 32ms from the due time", got)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean(1,4) = %v", g)
	}
	if g := geomean([]float64{2, 8, 4}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2,8,4) = %v", g)
	}
	if g := geomean([]float64{3, 0}); g != 0 {
		t.Errorf("geomean with a zero = %v, want 0", g)
	}
	groups := map[string][]float64{"b": {1, 3, 100}, "a": {4}}
	if got := groupMedians(groups); !reflect.DeepEqual(got, []float64{4, 3}) {
		t.Errorf("group medians %v, want [4 3] in key order", got)
	}
}

func TestReconcileArithmetic(t *testing.T) {
	// op (10ms) > validate (1ms), schedule (5ms) > nested (2ms)
	spans := []span{
		{Name: spOp, Op: 3, Parent: -1, Dur: 10 * time.Millisecond},
		{Name: spValidate, Op: 3, Parent: 0, Dur: 1 * time.Millisecond},
		{Name: spSchedule, Op: 3, Parent: 0, Dur: 5 * time.Millisecond, Attempt: 1, Failed: true},
		{Name: spRoute, Op: 3, Parent: 2, Dur: 2 * time.Millisecond},
	}
	self := selfTimes(spans)
	want := []time.Duration{4, 1, 3, 2}
	for i := range want {
		if self[i] != want[i]*time.Millisecond {
			t.Errorf("self[%d] = %v, want %vms", i, self[i], want[i])
		}
	}
	if got := opLayerSums(spans)[3]; got != 6*time.Millisecond {
		t.Errorf("layer sum %v, want 6ms (op self time excluded)", got)
	}
	tot := layerTotals(spans, nil)
	if tot[spSchedule] != 3*time.Millisecond || tot[spRoute] != 2*time.Millisecond {
		t.Errorf("layer totals %v", tot)
	}
	if r := residual(10, 9); math.Abs(r-0.1) > 1e-12 {
		t.Errorf("residual(10, 9) = %v, want 0.1", r)
	}
	if r := residual(10, 12); math.Abs(r+0.2) > 1e-12 {
		t.Errorf("residual(10, 12) = %v, want -0.2", r)
	}
	if o := overhead(10, 11); math.Abs(o-0.1) > 1e-12 {
		t.Errorf("overhead(10, 11) = %v, want 0.1", o)
	}

	// The tracer builds the same tree.
	tr := newTracer()
	tr.setOp(3)
	root := tr.begin(spOp)
	v := tr.begin(spValidate)
	tr.end(v)
	s := tr.begin(spSchedule)
	r := tr.begin(spRoute)
	tr.end(r)
	tr.tag(s, 1, true)
	tr.end(s)
	tr.end(root)
	parents := []int{-1, 0, 0, 2}
	for i, sp := range tr.spans {
		if sp.Parent != parents[i] || sp.Op != 3 {
			t.Errorf("span %d (%s): parent %d op %d", i, sp.Name, sp.Parent, sp.Op)
		}
	}
	if !tr.spans[2].Failed || tr.spans[2].Attempt != 1 {
		t.Error("attempt tag lost")
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin(spOp)) // a nil tracer records nothing
}

func TestSameReply(t *testing.T) {
	first := []byte(`{"assay":"PCR","cached":false,"summary":"PCR on fppc","elapsed_ms":3.2,"request_id":"r1"}`)
	hit := []byte(`{"assay":"PCR","cached":true,"summary":"PCR on fppc","elapsed_ms":0.1,"request_id":"r9"}`)
	if err := sameReply(first, hit, "PCR", ""); err != nil {
		t.Errorf("hit: %v", err)
	}
	renamed := []byte(`{"assay":"PCR #4","cached":false,"summary":"PCR #4 on fppc","elapsed_ms":1,"request_id":"r2"}`)
	if err := sameReply(first, renamed, "PCR", "PCR #4"); err != nil {
		t.Errorf("renamed: %v", err)
	}
	changed := []byte(`{"assay":"PCR","cached":true,"summary":"PCR on da","elapsed_ms":0.1,"request_id":"r9"}`)
	if sameReply(first, changed, "PCR", "") == nil {
		t.Error("a changed summary passed")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workload and metric tables
// in step with the code.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}
	norm := func(ms []metricSpec) []metricSpec {
		out := append([]metricSpec(nil), ms...)
		for i := range out {
			if f, ok := out[i].Bound.(float64); ok {
				out[i].Bound = f
			}
		}
		return out
	}
	if got, want := norm(b.EndToEnd), norm(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", got, want)
	}
	if got, want := b.PerLayer, perLayer(); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs:\n json %v\n code %v", got, want)
	}
}

func TestSpeedScaling(t *testing.T) {
	p := newSpeedProbe()
	p.samples = []float64{0.2, 0.2, 0.2, 0.4, 0.4, 0.4, 0.4, 0.4}
	scales := p.scales() // adds a ninth, measured sample: eight segments
	if len(scales) != 8 {
		t.Fatalf("%d scales, want one per segment (8)", len(scales))
	}
	// Segment k rests on samples k-2..k+3: segment 0 on three samples of
	// 0.2, segment 4 on one of 0.2 and five of 0.4.
	if want := probeRefMS / 0.2; math.Abs(scales[0]-want) > 1e-12 {
		t.Errorf("segment 0 scale %v, want %v", scales[0], want)
	}
	if want := probeRefMS / 0.4; math.Abs(scales[4]-want) > 1e-12 {
		t.Errorf("segment 4 scale %v, want %v", scales[4], want)
	}
	got := scaleAll([]float64{10, 10}, []int{0, 4}, scales)
	if math.Abs(got[0]-2*got[1]) > 1e-9 {
		t.Errorf("scaled %v: the op in the twice-as-slow stretch should read half as long", got)
	}
	// Every op of a group at the group's median: 3 x 1 ms + 1 x 2 ms.
	if got := medianThroughput(map[string][]float64{"a": {1, 1, 100}, "b": {2}}); math.Abs(got-800) > 1e-9 {
		t.Errorf("median throughput %v, want 800/s", got)
	}
}

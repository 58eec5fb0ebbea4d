package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// metricSpec names one reported metric.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Bound  any    `json:"bound,omitempty"`
}

// endToEnd lists the metrics of untraced runs, with the share of the
// parent's median by which each may worsen. Every workload reports all
// of them; workloadDoc in README.md says what each means per workload.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.2},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "geomean_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	// Simulated assay time of the compiled programs: deterministic for a
	// given input, so it moves only when the compiled programs change
	// (and, on fleet_churn, with the seed's placements).
	{Name: "assay_s_total", Unit: "assay_s", Better: "lower", Bound: 0.1},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer lists the metrics of traced runs. Metrics a workload does
// not exercise read 0.
func perLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) {
		out = append(out, metricSpec{Name: name, Unit: unit, Better: better})
	}
	// The tail percentile is kept here rather than among the bounded
	// end-to-end metrics: on serve_cold and serve_hot it falls among a
	// handful of large requests, and its run-to-run spread exceeded the
	// largest bound a metric may carry.
	add("tail_ms", "ms", "lower")
	for _, s := range slugs {
		add("dag.canonical_ms."+s, "ms", "lower")
	}
	add("dag.fingerprint_ms", "ms", "lower")
	add("dag.decode_ms", "ms", "lower")
	add("asl.parse_ms", "ms", "lower")
	add("dag.validate_ms", "ms", "lower")
	add("service.hit_ratio", "ratio", "higher")
	add("core.memo_hit_ratio", "ratio", "higher")
	add("service.transport_ms", "ms", "lower")
	add("service.residual_ms", "ms", "lower")
	add("service.response_kb", "KB", "lower")
	add("core.size_attempts", "count", "lower")
	add("core.size_useful_ratio", "ratio", "higher")
	add("core.size_failed_ms", "ms", "lower")
	add("core.new_chip_ms", "ms", "lower")
	add("core.place_ports_ms", "ms", "lower")
	for _, s := range slugs {
		for _, t := range targetNames() {
			add("core.compile_ms."+s+"."+t, "ms", "lower")
		}
	}
	add("scheduler.schedule_ms", "ms", "lower")
	add("router.route_ms", "ms", "lower")
	add("router.cycles", "count", "lower")
	add("oracle.verify_ms", "ms", "lower")
	add("sim.replay_ms", "ms", "lower")
	add("fleet.submit_ms", "ms", "lower")
	add("fleet.reconcile_ms", "ms", "lower")
	add("fleet.migrate_ms", "ms", "lower")
	add("fleet.tick_ms", "ms", "lower")
	add("fleet.reconcile_growth", "ratio", "lower")
	add("fleet.placed", "count", "higher")
	add("fleet.migrated", "count", "higher")
	add("fleet.failed", "count", "lower")
	add("runtime.alloc_mb_per_op", "MB", "lower")
	add("runtime.gc_pause_ms", "ms", "lower")
	add("runtime.goroutines_end", "count", "lower")
	add("bench.gen_late_ms", "ms", "lower")
	add("bench.fail_ratio", "ratio", "lower")
	add("bench.tail_pct", "%", "higher")
	add("bench.samples", "count", "higher")
	add("bench.reconcile_residual", "ratio", "lower")
	add("bench.reconcile_tolerance", "ratio", "higher")
	add("bench.reconcile_worst_row", "ratio", "lower")
	add("bench.trace_overhead", "ratio", "lower")
	add("bench.probe_ms", "ms", "lower")
	add("bench.wall_ops_per_s", "1/s", "higher")
	return out
}

// result is what a workload run hands back to main.
type result struct {
	attempted int
	failed    int
	// problems lists failed output checks and failed self-checks; any
	// entry makes the run incorrect.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	// log collects human-readable run notes for standard error.
	log []string
}

// note adds a run note for standard error.
func (r *result) note(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a failed op with its reason.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// problem records a failed check that is not an op of its own.
func (r *result) problem(format string, args ...any) {
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// latencies fills the latency metrics from per-op samples (ms): the
// median, the tail and its percentile, and the geometric mean of each
// group's median.
func (r *result) latencies(all []float64, groups map[string][]float64) {
	r.e2e["p50_ms"] = median(all)
	t, pct := tail(all)
	r.layer["tail_ms"] = t
	r.e2e["geomean_ms"] = geomean(groupMedians(groups))
	r.layer["bench.tail_pct"] = pct
	r.layer["bench.samples"] = float64(len(all))
}

// rtSnap is a runtime reading at a phase boundary.
type rtSnap struct {
	at         time.Time
	allocBytes uint64
	pauseNs    uint64
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{at: time.Now(), allocBytes: ms.TotalAlloc, pauseNs: ms.PauseTotalNs}
}

// startPhase collects the garbage set-up left behind, so every timed
// phase starts from the same heap, and takes the opening reading.
func startPhase() rtSnap {
	runtime.GC()
	return readRuntime()
}

// liveHeapMB forces a collection and reads the live heap, minus the
// bytes the benchmark itself still holds (inputs and recorded replies).
// The second collection empties the sync.Pool victim caches the first
// one leaves behind (encoder buffers of multi-MB replies).
func liveHeapMB(benchHeld int) float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	live := float64(s[0].Value.Uint64()) - float64(benchHeld)
	return live / (1 << 20)
}

// phaseRuntime records the runtime metrics of a timed phase.
func (r *result) phaseRuntime(start, end rtSnap, ops int, benchHeld int) {
	if ops > 0 {
		r.layer["runtime.alloc_mb_per_op"] = float64(end.allocBytes-start.allocBytes) / (1 << 20) / float64(ops)
	}
	r.layer["runtime.gc_pause_ms"] = float64(end.pauseNs-start.pauseNs) / 1e6
	r.e2e["live_heap_mb"] = liveHeapMB(benchHeld)
	r.layer["runtime.goroutines_end"] = float64(runtime.NumGoroutine())
	r.layer["bench.wall_ops_per_s"] = float64(ops) / end.at.Sub(start.at).Seconds()
	r.note("timed phase %.2fs, %d ops", end.at.Sub(start.at).Seconds(), ops)
}

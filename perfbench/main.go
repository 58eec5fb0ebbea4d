// Command perfbench is the repository benchmark: four seeded workloads
// driven through the program's public entry points (core.Compile and
// the core.TargetSpec hooks, an in-process service.Server on loopback,
// and the fleet's Reconcile and Tick), with output checks, printing one
// JSON result line. See README.md.
//
//	go run . --workload synth_table1 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// params are the run's command-line settings.
type params struct {
	seed     int64
	seconds  int
	trace    bool
	traceOut string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(params) (*result, error){
	"synth_table1": runSynth,
	"serve_cold":   runCold,
	"serve_hot":    runHot,
	"fleet_churn":  runFleet,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 7, "nominal run length; sets how many whole cycles a run performs")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/perfbench-<workload>-<seed>.trace.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut}
	if p.traceOut == "" {
		p.traceOut = filepath.Join(".bench_build", fmt.Sprintf("perfbench-%s-%d.trace.json", *workload, *seed))
	}
	t0 := time.Now()
	res, err := runner(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res.note("run %.2fs", time.Since(t0).Seconds())
	for _, n := range res.log {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", *workload, n)
	}
	for _, pr := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", *workload, pr)
	}
	out, err := render(res, p.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// render builds the result line: the end-to-end metrics of an untraced
// run or the per-layer metrics of a traced one, each by name and unit.
func render(res *result, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if res.attempted > 0 {
		res.layer["bench.fail_ratio"] = float64(res.failed) / float64(res.attempted)
	}
	specs, vals := endToEnd, res.e2e
	if traced {
		specs, vals = perLayer(), res.layer
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		metrics[s.Name] = value{Value: vals[s.Name], Unit: s.Unit}
	}
	return json.Marshal(map[string]any{
		"correct":   len(res.problems) == 0 && res.failed == 0 && res.attempted > 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
}

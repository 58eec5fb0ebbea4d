// Command benchjson produces the repo's benchmark artifact: the paper
// tables and per-stage cost matrix from `fppc-bench -json` plus
// `go test -bench` results for the simulator and service hot paths,
// merged into one JSON document (BENCH.json at the repo root; uploaded
// by the CI bench job and diffed by scripts/benchdiff).
//
// Usage: go run ./scripts/benchjson [-o BENCH.json] [-benchtime 1x]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// microBench is one parsed `go test -bench` result line.
type microBench struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchLine matches e.g.
// BenchmarkSimTelemetryOff-8   2286   506732 ns/op   138392 B/op   1525 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// benchPackages are the hot paths the artifact tracks: the cycle-level
// simulator (telemetry on/off overhead), the oracle replay that verifies
// every served compile, and the compile service.
var benchPackages = []string{"./internal/sim", "./internal/oracle", "./internal/service"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", "BENCH.json", "output file")
	quick := flag.String("benchtime", "", "override -benchtime (e.g. 1x for smoke runs)")
	flag.Parse()
	if err := run(*out, *quick); err != nil {
		log.Fatal(err)
	}
}

func run(out, benchtime string) error {
	doc := struct {
		Tables     json.RawMessage `json:"tables"`
		Benchmarks []microBench    `json:"benchmarks"`
	}{}

	tables, err := capture("go", "run", "./cmd/fppc-bench", "-json", "-table", "1")
	if err != nil {
		return err
	}
	if !json.Valid(tables) {
		return fmt.Errorf("fppc-bench -json emitted invalid JSON:\n%.300s", tables)
	}
	doc.Tables = json.RawMessage(bytes.TrimSpace(tables))

	for _, pkg := range benchPackages {
		args := []string{"test", "-run", "^$", "-bench", ".", "-benchmem", pkg}
		if benchtime != "" {
			args = append(args, "-benchtime", benchtime)
		}
		raw, err := capture("go", args...)
		if err != nil {
			return err
		}
		doc.Benchmarks = append(doc.Benchmarks, parseBench(pkg, string(raw))...)
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines parsed from %v", benchPackages)
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d micro-benchmarks)\n", out, len(doc.Benchmarks))
	return nil
}

func capture(name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return out, nil
}

func parseBench(pkg, out string) []microBench {
	var res []microBench
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := microBench{Package: strings.TrimPrefix(pkg, "./"), Name: m[1]}
		b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		b.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			b.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			b.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		res = append(res, b)
	}
	return res
}

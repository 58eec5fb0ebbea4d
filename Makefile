# Development targets. `make check` is the gate CI (and PRs) must pass:
# formatting, vet and the full test suite under the race detector.

GO ?= go

.PHONY: all build check fmt vet test race bench bench-all benchdiff bench-baseline loadbench cover cover-update golden

all: build

build:
	$(GO) build ./...

check: fmt vet race

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench regenerates BENCH.json — the canonical benchmark artifact:
# Table 1 rows and the per-stage cost matrix (wall/CPU/allocs/bytes per
# compile stage, target and benchmark) from fppc-bench -json, plus
# go test -bench on the simulator and service hot paths. benchdiff and
# CI read this one stable path; git history keeps earlier snapshots.
# bench-all still sweeps every micro-benchmark in the repo without
# writing the artifact.
bench:
	$(GO) run ./scripts/benchjson -o BENCH.json

bench-all:
	$(GO) test -bench=. -benchmem ./...

# benchdiff compares a fresh BENCH.json against the committed baseline
# — the perf ratchet. Deterministic count metrics (allocs, bytes) past
# +30% fail; time metrics warn. bench-baseline blesses the current
# numbers as the new baseline after an intentional change.
benchdiff: bench
	$(GO) run ./scripts/benchdiff -md benchdiff.md scripts/bench_baseline.json BENCH.json

bench-baseline: bench
	cp BENCH.json scripts/bench_baseline.json

# loadbench regenerates BENCH_LOAD.json: service latency percentiles
# and throughput per traffic mix from the open-loop load generator
# (compile mixes plus the chip-fleet mix with its per-chip
# placement/migration summary), run against an in-process server, with
# a runtime/metrics GC and heap summary. CI uploads the file as an
# artifact. Override LOADBENCH_FLAGS for longer runs or a live -addr.
LOADBENCH_FLAGS ?= -n 200 -rate 200
loadbench:
	$(GO) run ./cmd/fppc-load $(LOADBENCH_FLAGS) -o BENCH_LOAD.json

# cover enforces the coverage ratchet (scripts/coverage_floor.txt);
# cover-update raises the floor to the current total.
cover:
	sh scripts/coverage.sh

cover-update:
	sh scripts/coverage.sh -update

# golden regenerates the golden corpora — the oracle's pristine traces
# and the degraded-chip (fault-aware) compiles; CI fails if the result
# differs from what is checked in.
golden:
	$(GO) test ./internal/oracle -run TestGoldenTraces -update
	$(GO) test ./internal/faults -run TestGoldenDegraded -update

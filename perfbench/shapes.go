package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fppc/internal/assays"
	"fppc/internal/core"
	"fppc/internal/dag"
	"fppc/internal/router"
)

// slugs names the thirteen Table 1 assays in publication order; metric
// names use them (dag.canonical_ms.<slug>, core.compile_ms.<slug>.<target>).
var slugs = []string{"pcr", "iv1", "iv2", "iv3", "iv4", "iv5",
	"ps1", "ps2", "ps3", "ps4", "ps5", "ps6", "ps7"}

// Quota bases. A shape with n nodes appears max(1, round(base/n)) times
// per cycle, so quotas are proportional to 1/node-count and every shape,
// Protein Split 7 included, appears at least once. The served workloads
// use the node count of Protein Split 7 as base, so even their largest
// shape has a whole quota of one and the many small requests outweigh
// it; the fleet, whose driver places one job at a time, uses that of
// Protein Split 5 to keep a cycle within a run.
const (
	servedQuotaBase = 2686
	fleetQuotaBase  = 670
)

// largeNodes is the node count from which a shape's copies take fixed
// slots in a cycle instead of shuffled ones: Protein Split 3-7.
const largeNodes = 166

// fleetExcluded lists the shapes the 5-chip scenario fleet refuses even
// when healthy: Protein Split 7 needs a 12x31 FPPC array and the tallest
// fleet chip is 12x27.
var fleetExcluded = map[string]bool{"ps7": true}

// shape is one Table 1 assay and its per-cycle quota.
type shape struct {
	slug  string
	assay *dag.Assay
	quota int
}

func quotaFor(nodes int, base float64) int {
	q := int(math.Round(base / float64(nodes)))
	if q < 1 {
		q = 1
	}
	return q
}

// loadShapes returns the Table 1 assays with their quotas for the given
// base.
func loadShapes(base float64) []shape {
	bench := assays.Table1Benchmarks(assays.DefaultTiming())
	if len(bench) != len(slugs) {
		panic(fmt.Sprintf("perfbench: %d Table 1 assays, %d slugs", len(bench), len(slugs)))
	}
	out := make([]shape, len(bench))
	for i, a := range bench {
		out[i] = shape{slug: slugs[i], assay: a, quota: quotaFor(a.Len(), base)}
	}
	return out
}

// targetNames lists the registered targets in ID order.
func targetNames() []string { return core.TargetNames() }

// compileConfig is the synthesis configuration every workload uses for
// a target: auto-grow on, and pin programs emitted (one mixer rotation
// per step, as fppc-bench -verify does) on targets that have them.
func compileConfig(spec *core.TargetSpec) core.Config {
	cfg := core.Config{Target: spec.ID, AutoGrow: true}
	if spec.Capabilities.PinProgram {
		cfg.Router = router.Options{EmitProgram: true, RotationsPerStep: 1}
	}
	return cfg
}

// slot is one operation of a cycle: which shape, which copy of its
// quota, and the target it compiles for ("" when the target is free, as
// for fleet jobs).
type slot struct {
	shape  int
	copy   int
	target string
}

// cycleSlots lays out one cycle: every included shape appears quota
// times. Copies of the large shapes (largeNodes and up) take fixed
// slots, smallest first (largest first with largeFirst), each at the
// start of a stretch of the cycle
// proportional to its node count to the power 1.5 (about what
// canonicalizing and encoding it costs), so each large request is done
// before the next one is due and every cycle costs the same. The seed
// shuffles every other slot. Copy j of shape s compiles for target
// (s+j) mod len(targets), so each cycle has the same target mix.
func cycleSlots(shapes []shape, targets []string, include func(shape) bool, largeFirst bool, rng *rand.Rand) []slot {
	var large, rest []slot
	for s, sh := range shapes {
		if include != nil && !include(sh) {
			continue
		}
		for j := 0; j < sh.quota; j++ {
			sl := slot{shape: s, copy: j}
			if len(targets) > 0 {
				sl.target = targets[(s+j)%len(targets)]
			}
			if sh.assay.Len() >= largeNodes {
				large = append(large, sl)
			} else {
				rest = append(rest, sl)
			}
		}
	}
	weight := func(sl slot) float64 {
		return math.Pow(float64(shapes[sl.shape].assay.Len()), 1.5)
	}
	sort.SliceStable(large, func(i, j int) bool {
		if largeFirst {
			return weight(large[i]) > weight(large[j])
		}
		return weight(large[i]) < weight(large[j])
	})
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	n := len(large) + len(rest)
	total := 0.0
	for _, sl := range large {
		total += weight(sl)
	}
	fixed := make(map[int]slot, len(large))
	acc, prev := 0.0, -1
	for k, sl := range large {
		pos := max(prev+1, int(float64(n)*acc/total))
		pos = min(pos, n-len(large)+k)
		fixed[pos] = sl
		prev = pos
		acc += weight(sl)
	}
	out := make([]slot, 0, n)
	for pos := 0; pos < n; pos++ {
		if sl, ok := fixed[pos]; ok {
			out = append(out, sl)
			continue
		}
		out = append(out, rest[0])
		rest = rest[1:]
	}
	return out
}

// perturb returns a copy of the assay with k operation durations
// lengthened by 1-3 s each: a new structure, so both the canonical
// fingerprint and the structural hash change and neither the service
// cache nor the compile memo can serve it.
func perturb(a *dag.Assay, k int, rng *rand.Rand) *dag.Assay {
	c := a.Clone()
	var timed []*dag.Node
	for _, n := range c.Nodes {
		if n.Duration > 0 {
			timed = append(timed, n)
		}
	}
	for ; k > 0 && len(timed) > 0; k-- {
		i := rng.Intn(len(timed))
		timed[i].Duration += 1 + rng.Intn(3)
		timed = append(timed[:i], timed[i+1:]...)
	}
	return c
}

// uniquePerturb draws perturbations of two durations, widening to more
// after repeated collisions, until the fingerprint is new to the run, so
// no two requests of a run share a structure.
func uniquePerturb(a *dag.Assay, rng *rand.Rand, seen map[string]bool) (*dag.Assay, error) {
	for try := 0; try < 64; try++ {
		p := perturb(a, 2+try/8, rng)
		fp, err := p.Fingerprint()
		if err != nil {
			return nil, err
		}
		if !seen[fp] {
			seen[fp] = true
			return p, nil
		}
	}
	return nil, fmt.Errorf("perfbench: no unused perturbation of %s after 64 draws", a.Name)
}

// cycleCount is the number of whole cycles a run performs: enough that
// a run lasts about the requested seconds at the nominal cycle time
// measured on the reference box (2 cores). Fixing the work per run,
// rather than stopping on the clock, keeps the op mix, and with it every
// percentile, identical between runs.
func cycleCount(seconds int, nominalCycleS float64) int {
	n := int(math.Ceil(float64(seconds) / nominalCycleS))
	if n < 1 {
		n = 1
	}
	return n
}

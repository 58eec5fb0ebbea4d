package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fppc/internal/arch"
	"fppc/internal/assays"
	"fppc/internal/faults"
)

// The placer's core safety property: a job is never assigned to a chip
// where its assay is unsynthesizable while some feasible chip exists,
// and a job only fails when no chip in the fleet is feasible. Chips
// get randomized (seeded) fault sets, so the feasibility landscape
// varies per round; the oracle for the property is the placer's own
// compile outcome, recomputed per chip after the fact.
func TestPlacerNeverPicksInfeasibleChip(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the benchmark across many fault landscapes")
	}
	ref, err := arch.NewFPPC(21)
	if err != nil {
		t.Fatal(err)
	}
	tm := assays.DefaultTiming()
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			specs := make([]ChipSpec, 3)
			for i := range specs {
				// 0..8 random faults; heavier sets are frequently
				// unsynthesizable for the mixing benchmarks.
				set, err := faults.RandomSet(rng, ref, rng.Intn(9), false)
				if err != nil {
					t.Fatal(err)
				}
				specs[i] = ChipSpec{ID: fmt.Sprintf("c%d", i), Faults: set.String()}
			}
			f, err := New(Config{Chips: specs})
			if err != nil {
				t.Fatal(err)
			}
			st, err := f.Submit(assays.PCR(tm), "")
			if err != nil {
				t.Fatal(err)
			}
			f.Reconcile(context.Background())
			got, _ := f.Job(st.ID)

			// Recompute feasibility per chip through the same compile path
			// the placer used (cache-hit, so this is cheap and exact).
			canon, err := assays.PCR(tm).Canonical()
			if err != nil {
				t.Fatal(err)
			}
			fp, err := assays.PCR(tm).Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			feasible := map[string]bool{}
			anyFeasible := false
			for _, id := range f.order {
				c := f.chips[id]
				e := f.compileFor(context.Background(), canon, fp, c.spec, c.effective, c.effSpec)
				feasible[id] = e.feasible()
				anyFeasible = anyFeasible || e.feasible()
			}

			switch got.State {
			case JobPlaced:
				if !feasible[got.Chip] {
					t.Fatalf("job placed on infeasible chip %s (feasible: %v)", got.Chip, feasible)
				}
			case JobFailed:
				if anyFeasible {
					t.Fatalf("job failed although a feasible chip exists: %v", feasible)
				}
			default:
				t.Fatalf("job left in state %s", got.State)
			}
		})
	}
}

// Placement is a pure function of fleet config and submission order:
// identical fleets given identical submissions make identical
// decisions, event for event.
func TestPlacementDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the benchmark suite twice")
	}
	build := func() string {
		f := newTestFleet(t,
			ChipSpec{ID: "c0"}, ChipSpec{ID: "c1", Height: 27},
			ChipSpec{ID: "c2", Faults: holdMustSpec(t)}, ChipSpec{ID: "c3", Target: "da"})
		for i := 0; i < 9; i++ {
			if _, err := f.Submit(scenarioAssay(i), ""); err != nil {
				t.Fatal(err)
			}
		}
		f.Reconcile(context.Background())
		jobs, err := json.Marshal(f.Jobs())
		if err != nil {
			t.Fatal(err)
		}
		evs, err := json.Marshal(f.Events(0))
		if err != nil {
			t.Fatal(err)
		}
		return string(jobs) + "\n" + string(evs)
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("placement not deterministic:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

// holdMustSpec is a benign single-fault spec on the default array.
func holdMustSpec(t *testing.T) string {
	t.Helper()
	spec, err := holdFaultSpec(0)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// The scorer prefers fewer effective faults, then lower predicted wear,
// then load; the chip id breaks all remaining ties.
func TestScoreOrdering(t *testing.T) {
	base := score{faults: 1, predWear: 0.5, jobs: 2, makespan: 30, chipID: "b"}
	cases := []struct {
		name string
		a    score
		want bool
	}{
		{"fewer faults wins", score{faults: 0, predWear: 0.9, jobs: 9, makespan: 99, chipID: "z"}, true},
		{"lower wear wins at equal faults", score{faults: 1, predWear: 0.4, jobs: 9, makespan: 99, chipID: "z"}, true},
		{"lower load wins at equal wear", score{faults: 1, predWear: 0.5, jobs: 1, makespan: 99, chipID: "z"}, true},
		{"lower makespan wins at equal load", score{faults: 1, predWear: 0.5, jobs: 2, makespan: 29, chipID: "z"}, true},
		{"chip id is the final tie-break", score{faults: 1, predWear: 0.5, jobs: 2, makespan: 30, chipID: "a"}, true},
		{"worse on the leading key loses", score{faults: 2, predWear: 0.0, jobs: 0, makespan: 1, chipID: "a"}, false},
	}
	for _, c := range cases {
		if got := c.a.better(base); got != c.want {
			t.Errorf("%s: better = %v, want %v", c.name, got, c.want)
		}
	}

	// A marginal wear edge — same 5% bucket — must not defeat load
	// balancing; it only breaks ties once load and makespan agree.
	lighter := score{faults: 0, predWear: 0.011, jobs: 4, makespan: 10, chipID: "a"}
	loaded := score{faults: 0, predWear: 0.014, jobs: 2, makespan: 10, chipID: "b"}
	if lighter.better(loaded) {
		t.Error("sub-bucket wear difference overrode load balancing")
	}
	tied := loaded
	tied.jobs = lighter.jobs
	if !lighter.better(tied) {
		t.Error("exact wear did not break the full tie")
	}
}

// failedOps picks the work in flight at a given progress point, the
// next operation when between residencies, and nothing once the
// schedule is exhausted.
func TestFailedOps(t *testing.T) {
	spans := []opSpan{
		{node: 3, start: 0, end: 4},
		{node: 1, start: 2, end: 6},
		{node: 7, start: 8, end: 12},
	}
	cases := []struct {
		progress int64
		want     string
	}{
		{0, "[3]"},
		{3, "[1 3]"},
		{5, "[1]"},
		{6, "[7]"}, // gap: the next op to start fails on arrival
		{9, "[7]"},
		{12, "[]"}, // everything done
		{99, "[]"},
	}
	for _, c := range cases {
		got := fmt.Sprint(failedOps(spans, c.progress))
		if c.want == "[]" {
			if failedOps(spans, c.progress) != nil {
				t.Errorf("progress %d: got %s, want nil", c.progress, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("progress %d: got %s, want %s", c.progress, got, c.want)
		}
	}
}

// TestCompileForFollowerHonorsDeadline pins the singleflight wait: a
// caller that finds a compile in flight must give up when its own
// context expires, even while the leader is still compiling, and get an
// uncached canceled outcome. Once the leader finishes, later callers
// share its result.
func TestCompileForFollowerHonorsDeadline(t *testing.T) {
	f, err := New(Config{Chips: []ChipSpec{{ID: "c0"}}})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := assays.PCR(assays.DefaultTiming()).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := canon.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	c := f.chips["c0"]
	key := compileKey(fp, c.spec, c.effSpec)

	// A slow leader: it registers the in-flight entry, then finishes
	// once the follower has returned (or after two seconds, so a
	// follower that ignores its deadline fails instead of hanging).
	leader := &compiled{done: make(chan struct{})}
	f.compiles.mu.Lock()
	f.compiles.entries[key] = leader
	f.compiles.mu.Unlock()
	followerDone := make(chan struct{})
	go func() {
		select {
		case <-followerDone:
		case <-time.After(2 * time.Second):
		}
		leader.err = errors.New("leader outcome")
		close(leader.done)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	got := f.compileFor(ctx, canon, fp, c.spec, c.effective, c.effSpec)
	waited := time.Since(start)
	close(followerDone)
	if got == leader {
		t.Fatal("follower returned the leader's entry before the leader finished")
	}
	if got.err == nil || !isCanceled(got.err) {
		t.Fatalf("follower outcome error = %v, want a canceled error", got.err)
	}
	if waited > time.Second {
		t.Fatalf("follower waited %v past its 20ms deadline", waited)
	}
	f.compiles.mu.Lock()
	cached := f.compiles.entries[key]
	f.compiles.mu.Unlock()
	if cached != leader {
		t.Fatal("the follower's canceled outcome replaced the leader's cache entry")
	}

	// With the leader done, a live caller shares its outcome.
	if again := f.compileFor(context.Background(), canon, fp, c.spec, c.effective, c.effSpec); again != leader {
		t.Fatal("a caller after the leader finished did not share its outcome")
	}
}

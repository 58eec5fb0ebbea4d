package scheduler

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"fppc/internal/assays"
)

// TestDepthOrderMatchesComparisonSort is the differential test of
// depthOrder's counting sort: on random depths — dense ranges, negative
// values, and spreads wide enough to take the sparse fallback — it must
// return exactly what slices.SortFunc gives for the key (depth
// descending, id ascending).
func TestDepthOrderMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	dense, sparse := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(60)
		spread := []int{1, 8, n + 1, 4*n + 64, 1 << 20}[trial%5]
		depth := make([]int, n)
		for i := range depth {
			depth[i] = rng.Intn(spread) - spread/4
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		slices.SortFunc(want, func(x, y int) int {
			if c := cmp.Compare(depth[y], depth[x]); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
		if got := depthOrder(depth); !slices.Equal(got, want) {
			t.Fatalf("depths %v: order %v, want %v", depth, got, want)
		}
		if n > 0 {
			if sparseDepths(n, slices.Min(depth), slices.Max(depth)) {
				sparse++
			} else {
				dense++
			}
		}
	}
	if dense == 0 || sparse == 0 {
		t.Errorf("bucket path ran %d times and the sparse fallback %d times; want both", dense, sparse)
	}
}

// TestEdgeSetMatchesPerDropletBuild checks the slab-built edge set
// against the straightforward construction — one droplet per edge,
// appended to its producer's and consumer's lists in node order — on
// every Table 1 assay: same droplets, same per-node lists and order.
func TestEdgeSetMatchesPerDropletBuild(t *testing.T) {
	for _, a := range assays.Table1Benchmarks(assays.DefaultTiming()) {
		es := newEdgeSet(a)
		byProd := make([][]int, a.Len())
		byCons := make([][]int, a.Len())
		id := 0
		for _, n := range a.Nodes {
			for ci, c := range n.Children {
				d := es.drops[id]
				if d.id != id || d.producer != n.ID || d.consumer != c || d.childIdx != ci {
					t.Fatalf("%s: droplet %d = %+v, want %d->%d child %d", a.Name, id, *d, n.ID, c, ci)
				}
				byProd[n.ID] = append(byProd[n.ID], id)
				byCons[c] = append(byCons[c], id)
				id++
			}
		}
		if len(es.drops) != id {
			t.Fatalf("%s: %d droplets, want %d", a.Name, len(es.drops), id)
		}
		ids := func(ds []*droplet) []int {
			var out []int
			for _, d := range ds {
				out = append(out, d.id)
			}
			return out
		}
		for n := range a.Nodes {
			if got := ids(es.byProd[n]); !slices.Equal(got, byProd[n]) {
				t.Fatalf("%s: byProd[%d] = %v, want %v", a.Name, n, got, byProd[n])
			}
			if got := ids(es.byCons[n]); !slices.Equal(got, byCons[n]) {
				t.Fatalf("%s: byCons[%d] = %v, want %v", a.Name, n, got, byCons[n])
			}
		}
	}
}

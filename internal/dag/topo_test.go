package dag

import (
	"math/rand"
	"slices"
	"testing"
)

// randomDAG builds an n-node graph with random forward edges i -> j
// (i < j), so every parent ID is below its child's: the shape on which
// TopologicalOrder takes its identity fast path. Parents and Children
// stay symmetric, duplicates included.
func randomDAG(rng *rand.Rand, n int) *Assay {
	a := New("random")
	for i := 0; i < n; i++ {
		a.Add(Mix, "", "", 1)
	}
	for j := 1; j < n; j++ {
		for k := rng.Intn(3); k > 0; k-- {
			a.AddEdge(a.Nodes[rng.Intn(j)], a.Nodes[j])
		}
	}
	return a
}

// relabel renumbers a's nodes by perm (old ID i becomes perm[i]),
// rewriting both edge lists, so parents no longer need lower IDs.
func relabel(a *Assay, perm []int) *Assay {
	b := New(a.Name)
	b.Nodes = make([]*Node, len(a.Nodes))
	for i, nd := range a.Nodes {
		m := &Node{ID: perm[i], Kind: nd.Kind, Duration: nd.Duration}
		for _, p := range nd.Parents {
			m.Parents = append(m.Parents, perm[p])
		}
		for _, c := range nd.Children {
			m.Children = append(m.Children, perm[c])
		}
		b.Nodes[perm[i]] = m
	}
	return b
}

// TestTopologicalOrderFastPathMatchesHeap is the differential test of
// TopologicalOrder's identity fast path: on sorted-ID DAGs, renumbered
// (shuffled-ID) DAGs and graphs with a cycle, it must return exactly
// what Kahn's heap path returns — the same order or the same error.
func TestTopologicalOrderFastPathMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	check := func(kind string, a *Assay) {
		t.Helper()
		got, gotErr := a.TopologicalOrder()
		want, wantErr := a.kahnOrder()
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s (%d nodes): err = %v, heap path err = %v", kind, a.Len(), gotErr, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s (%d nodes): order %v, heap path %v", kind, a.Len(), got, want)
		}
	}
	fast, slow := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		sorted := randomDAG(rng, n)
		if !sorted.identityOrdered() {
			t.Fatalf("sorted-ID DAG of %d nodes missed the fast path", n)
		}
		check("sorted", sorted)

		shuffled := relabel(sorted, rng.Perm(n))
		if shuffled.identityOrdered() {
			fast++
		} else {
			slow++
		}
		check("shuffled", shuffled)

		// Close a cycle u -> v -> u (a self-loop when u == v), then
		// check it on both numberings.
		cyclic := randomDAG(rng, n)
		u := rng.Intn(n)
		v := u + rng.Intn(n-u)
		if u != v {
			cyclic.AddEdge(cyclic.Nodes[u], cyclic.Nodes[v])
		}
		cyclic.AddEdge(cyclic.Nodes[v], cyclic.Nodes[u])
		if _, err := cyclic.TopologicalOrder(); err == nil {
			t.Fatalf("cycle %d -> %d -> %d not detected", u, v, u)
		}
		check("cyclic", cyclic)
		check("cyclic shuffled", relabel(cyclic, rng.Perm(n)))
	}
	if fast == 0 || slow == 0 {
		t.Errorf("shuffled DAGs took the fast path %d times and the heap path %d times; want both", fast, slow)
	}
}

// TestTopologicalOrderAsymmetricEdges pins the fast path's exactness on
// malformed input TopologicalOrder may see before validation: a parent
// recorded on the child only never releases it, and the heap path's
// cycle error must come back unchanged.
func TestTopologicalOrderAsymmetricEdges(t *testing.T) {
	a := New("asym")
	x := a.Add(Dispense, "I1", "s", 1)
	y := a.Add(Output, "O1", "w", 0)
	y.Parents = append(y.Parents, x.ID)
	_, err := a.TopologicalOrder()
	_, want := a.kahnOrder()
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("err = %v, heap path err = %v", err, want)
	}
}

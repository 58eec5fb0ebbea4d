// Package dag models a microfluidic assay as a directed acyclic graph of
// operations, the input representation of the synthesis flow (paper
// section 1.1.2 and Figure 3). Nodes are microfluidic operations
// (dispense, mix, split, store, detect, output); edges carry droplets
// between them and impose execution order.
package dag

import (
	"encoding/json"
	"fmt"
)

// Kind enumerates the basic microfluidic operations of Figure 2.
type Kind int

// The operation kinds. Store nodes may appear in input assays, and the
// scheduler also inserts them when converting splits (Figure 9) or parking
// droplets.
const (
	Dispense Kind = iota
	Mix
	Split
	Store
	Detect
	Output
)

var kindNames = [...]string{"dispense", "mix", "split", "store", "detect", "output"}

// String returns the lowercase operation name.
func (k Kind) String() string {
	if k < Dispense || k > Output {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind converts an operation name back to its Kind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("dag: unknown operation kind %q", s)
}

// inDegree / outDegree requirements per kind (paper Figure 2 semantics).
// Mix is a merge-then-mix of exactly two droplets.
var (
	wantIn  = map[Kind][2]int{Dispense: {0, 0}, Mix: {2, 2}, Split: {1, 1}, Store: {1, 1}, Detect: {1, 1}, Output: {1, 1}}
	wantOut = map[Kind][2]int{Dispense: {1, 1}, Mix: {1, 1}, Split: {2, 2}, Store: {1, 1}, Detect: {1, 1}, Output: {0, 0}}
)

// Node is one assay operation.
type Node struct {
	ID       int    // dense index into Assay.Nodes
	Kind     Kind   // operation type
	Label    string // human-readable name, e.g. "M1"
	Fluid    string // fluid name for Dispense/Output (reservoir binding key)
	Duration int    // latency in scheduler time-steps (typically seconds)

	Parents  []int // IDs of operations producing this node's input droplets
	Children []int // IDs of operations consuming this node's outputs
}

// Assay is a named operation DAG.
type Assay struct {
	Name  string
	Nodes []*Node

	// Reservoirs gives the number of input ports available per dispense
	// fluid. Fluids not listed default to 1. Dispense operations of the
	// same fluid serialize across its ports, which is what makes the
	// protein-split benchmarks dispense-bound (paper section 5.2).
	Reservoirs map[string]int
}

// New creates an empty assay.
func New(name string) *Assay {
	return &Assay{Name: name}
}

// ReservoirCount returns the number of dispense ports for a fluid
// (defaulting to 1).
func (a *Assay) ReservoirCount(fluid string) int {
	if n, ok := a.Reservoirs[fluid]; ok && n > 0 {
		return n
	}
	return 1
}

// SetReservoirs declares how many dispense ports fluid has.
func (a *Assay) SetReservoirs(fluid string, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("dag: reservoir count %d for %q", n, fluid))
	}
	if a.Reservoirs == nil {
		a.Reservoirs = map[string]int{}
	}
	a.Reservoirs[fluid] = n
}

// Add appends a node with the given attributes and returns it. Duration
// must be non-negative; kinds that finish within a single routing phase
// (split, output) typically use 0.
func (a *Assay) Add(kind Kind, label, fluid string, duration int) *Node {
	if duration < 0 {
		panic(fmt.Sprintf("dag: negative duration %d for %s", duration, label))
	}
	n := &Node{ID: len(a.Nodes), Kind: kind, Label: label, Fluid: fluid, Duration: duration}
	a.Nodes = append(a.Nodes, n)
	return n
}

// AddEdge connects parent -> child, recording the dependency on both ends.
func (a *Assay) AddEdge(parent, child *Node) {
	if parent == nil || child == nil {
		panic("dag: AddEdge with nil node")
	}
	parent.Children = append(parent.Children, child.ID)
	child.Parents = append(child.Parents, parent.ID)
}

// Node returns the node with the given ID, or nil if out of range.
func (a *Assay) Node(id int) *Node {
	if id < 0 || id >= len(a.Nodes) {
		return nil
	}
	return a.Nodes[id]
}

// Len returns the number of operations.
func (a *Assay) Len() int { return len(a.Nodes) }

// Validate checks structural well-formedness: IDs dense and consistent,
// per-kind in/out degrees, symmetric parent/child lists, and acyclicity.
func (a *Assay) Validate() error {
	_, err := a.ValidateAndOrder()
	return err
}

// ValidateAndOrder runs the same checks as Validate and returns the
// deterministic topological order, computing it once. Hot callers (the
// schedulers re-validate per auto-grow attempt) use this to avoid
// ordering the graph twice.
func (a *Assay) ValidateAndOrder() ([]int, error) {
	if err := a.validateStructure(); err != nil {
		return nil, err
	}
	order, err := a.TopologicalOrder()
	if err != nil {
		return nil, fmt.Errorf("dag %s: %v", a.Name, err)
	}
	return order, nil
}

func (a *Assay) validateStructure() error {
	for i, n := range a.Nodes {
		if n == nil {
			return fmt.Errorf("dag %s: nil node at %d", a.Name, i)
		}
		if n.ID != i {
			return fmt.Errorf("dag %s: node %q has ID %d at index %d", a.Name, n.Label, n.ID, i)
		}
		if n.Kind < Dispense || n.Kind > Output {
			return fmt.Errorf("dag %s: node %q has invalid kind %d", a.Name, n.Label, int(n.Kind))
		}
		in, out := wantIn[n.Kind], wantOut[n.Kind]
		if len(n.Parents) < in[0] || len(n.Parents) > in[1] {
			return fmt.Errorf("dag %s: %s node %q has %d parents, want %d..%d",
				a.Name, n.Kind, n.Label, len(n.Parents), in[0], in[1])
		}
		if len(n.Children) < out[0] || len(n.Children) > out[1] {
			return fmt.Errorf("dag %s: %s node %q has %d children, want %d..%d",
				a.Name, n.Kind, n.Label, len(n.Children), out[0], out[1])
		}
		if n.Kind == Dispense && n.Fluid == "" {
			return fmt.Errorf("dag %s: dispense node %q has no fluid", a.Name, n.Label)
		}
		for _, p := range n.Parents {
			if a.Node(p) == nil {
				return fmt.Errorf("dag %s: node %q references missing parent %d", a.Name, n.Label, p)
			}
			if !contains(a.Nodes[p].Children, i) {
				return fmt.Errorf("dag %s: edge %d->%d recorded on child only", a.Name, p, i)
			}
		}
		for _, c := range n.Children {
			if a.Node(c) == nil {
				return fmt.Errorf("dag %s: node %q references missing child %d", a.Name, n.Label, c)
			}
			if !contains(a.Nodes[c].Parents, i) {
				return fmt.Errorf("dag %s: edge %d->%d recorded on parent only", a.Name, i, c)
			}
		}
	}
	return nil
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TopologicalOrder returns node IDs so every edge goes forward, or an
// error if the graph is cyclic (ties broken by smallest ID, matching
// Kahn's algorithm with a min-queue).
func (a *Assay) TopologicalOrder() ([]int, error) {
	if a.identityOrdered() {
		order := make([]int, len(a.Nodes))
		for i := range order {
			order[i] = i
		}
		return order, nil
	}
	return a.kahnOrder()
}

// inDegrees returns each node's parent count, indexed by ID.
func (a *Assay) inDegrees() []int {
	indeg := make([]int, len(a.Nodes))
	for _, nd := range a.Nodes {
		indeg[nd.ID] = len(nd.Parents)
	}
	return indeg
}

// identityOrdered reports whether kahnOrder would return the identity
// 0..n-1 — the common case, since builders add nodes in dependency
// order and canonical forms number them topologically, so every parent
// has a lower ID than its child. It replays Kahn's algorithm in ID
// order without the heap: node i is the heap's minimum once every lower
// node is emitted, provided its in-degree has already dropped to zero
// (or below; kahnOrder pushes a node only when its count reaches zero,
// so never twice). The check is exact for any input and O(V+E).
func (a *Assay) identityOrdered() bool {
	indeg := a.inDegrees()
	for i, nd := range a.Nodes {
		if indeg[i] > 0 {
			return false
		}
		for _, c := range nd.Children {
			indeg[c]--
		}
	}
	return true
}

// kahnOrder is Kahn's algorithm with a min-heap ready queue, the general
// path of TopologicalOrder.
func (a *Assay) kahnOrder() ([]int, error) {
	n := len(a.Nodes)
	indeg := a.inDegrees()
	var ready intMinHeap
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		// Pop smallest for determinism (Kahn with a min-queue).
		v := ready.pop()
		order = append(order, v)
		for _, c := range a.Nodes[v].Children {
			indeg[c]--
			if indeg[c] == 0 {
				ready.push(c)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("cycle detected (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// intMinHeap is a minimal binary min-heap over node IDs, giving
// kahnOrder its smallest-ID tie-break in O(log n) per pop.
type intMinHeap []int

func (h *intMinHeap) push(v int) {
	*h = append(*h, v)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *intMinHeap) pop() int {
	s := *h
	v := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s[l] < s[m] {
			m = l
		}
		if r < len(s) && s[r] < s[m] {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return v
}

// CriticalPath returns the longest chain of operation durations in
// time-steps: a lower bound on the assay's execution time on any number
// of resources (ignoring routing and dispense-port contention).
func (a *Assay) CriticalPath() (int, error) {
	order, err := a.TopologicalOrder()
	if err != nil {
		return 0, err
	}
	finish := make([]int, len(a.Nodes))
	best := 0
	for _, id := range order {
		n := a.Nodes[id]
		start := 0
		for _, p := range n.Parents {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[id] = start + n.Duration
		if finish[id] > best {
			best = finish[id]
		}
	}
	return best, nil
}

// Stats summarises an assay for reports.
type Stats struct {
	Nodes, Edges  int
	ByKind        map[Kind]int
	CriticalPath  int
	Fluids        []string // distinct dispense fluids, sorted
	MaxConcurrent int      // width of the DAG: max ops runnable together (ASAP levels)
}

// ComputeStats analyses the assay; the assay must validate.
func (a *Assay) ComputeStats() (Stats, error) {
	if err := a.Validate(); err != nil {
		return Stats{}, err
	}
	st := Stats{Nodes: len(a.Nodes), ByKind: map[Kind]int{}}
	fluidSet := map[string]bool{}
	for _, n := range a.Nodes {
		st.ByKind[n.Kind]++
		st.Edges += len(n.Children)
		if n.Kind == Dispense {
			fluidSet[n.Fluid] = true
		}
	}
	for f := range fluidSet {
		st.Fluids = append(st.Fluids, f)
	}
	sortStrings(st.Fluids)
	cp, err := a.CriticalPath()
	if err != nil {
		return Stats{}, err
	}
	st.CriticalPath = cp

	// ASAP levelization to estimate peak concurrency.
	order, _ := a.TopologicalOrder()
	start := make([]int, len(a.Nodes))
	end := make([]int, len(a.Nodes))
	for _, id := range order {
		n := a.Nodes[id]
		s := 0
		for _, p := range n.Parents {
			if end[p] > s {
				s = end[p]
			}
		}
		start[id], end[id] = s, s+n.Duration
	}
	events := map[int]int{} // time -> delta of active ops
	for i, n := range a.Nodes {
		if n.Duration == 0 {
			continue
		}
		events[start[i]]++
		events[end[i]]--
	}
	var times []int
	for t := range events {
		times = append(times, t)
	}
	sortInts(times)
	active := 0
	for _, t := range times {
		active += events[t]
		if active > st.MaxConcurrent {
			st.MaxConcurrent = active
		}
	}
	return st, nil
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

func sortStrings(a []string) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

// jsonAssay is the serialized form: edges live only on the parent side.
type jsonAssay struct {
	Name       string         `json:"name"`
	Reservoirs map[string]int `json:"reservoirs,omitempty"`
	Nodes      []jsonNode     `json:"nodes"`
}

type jsonNode struct {
	ID       int    `json:"id"`
	Kind     string `json:"kind"`
	Label    string `json:"label,omitempty"`
	Fluid    string `json:"fluid,omitempty"`
	Duration int    `json:"duration"`
	Children []int  `json:"children,omitempty"`
}

// MarshalJSON encodes the assay with child edges only.
func (a *Assay) MarshalJSON() ([]byte, error) {
	out := jsonAssay{Name: a.Name, Reservoirs: a.Reservoirs}
	for _, n := range a.Nodes {
		out.Nodes = append(out.Nodes, jsonNode{
			ID: n.ID, Kind: n.Kind.String(), Label: n.Label,
			Fluid: n.Fluid, Duration: n.Duration, Children: n.Children,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes and re-links parent edges; call Validate after.
func (a *Assay) UnmarshalJSON(data []byte) error {
	var in jsonAssay
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	a.Name = in.Name
	a.Reservoirs = in.Reservoirs
	a.Nodes = make([]*Node, len(in.Nodes))
	for i, jn := range in.Nodes {
		if jn.ID != i {
			return fmt.Errorf("dag: node id %d at index %d (must be dense)", jn.ID, i)
		}
		kind, err := ParseKind(jn.Kind)
		if err != nil {
			return err
		}
		a.Nodes[i] = &Node{ID: i, Kind: kind, Label: jn.Label, Fluid: jn.Fluid, Duration: jn.Duration}
	}
	for i, jn := range in.Nodes {
		for _, c := range jn.Children {
			if c < 0 || c >= len(a.Nodes) {
				return fmt.Errorf("dag: node %d has out-of-range child %d", i, c)
			}
			a.Nodes[i].Children = append(a.Nodes[i].Children, c)
			a.Nodes[c].Parents = append(a.Nodes[c].Parents, i)
		}
	}
	return nil
}

// Clone returns a deep copy of the assay.
func (a *Assay) Clone() *Assay {
	c := New(a.Name)
	if a.Reservoirs != nil {
		c.Reservoirs = make(map[string]int, len(a.Reservoirs))
		for f, n := range a.Reservoirs {
			c.Reservoirs[f] = n
		}
	}
	for _, n := range a.Nodes {
		m := *n
		m.Parents = append([]int(nil), n.Parents...)
		m.Children = append([]int(nil), n.Children...)
		c.Nodes = append(c.Nodes, &m)
	}
	return c
}

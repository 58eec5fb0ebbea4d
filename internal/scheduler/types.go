// Package scheduler implements the paper's list-scheduling + binding stage
// (section 4.1-4.2) for both target architectures. Unlike prior list
// schedulers that use one generic module type, the FPPC scheduler
// distinguishes mixing modules from SSD (split/store/detect) modules,
// converts splits into an instantaneous split plus storage (Figure 9), and
// reserves one SSD module as the router's deadlock buffer (section 4.3).
//
// The scheduler binds operations to concrete module instances as it goes,
// always choosing the lowest-numbered free instance, in the manner of the
// left-edge algorithm [Kurdahi & Parker]. The tests check that the binding
// never double-books an instance: the intervals bound to any one instance
// are pairwise disjoint (checkNoDoubleBooking in scheduler_test.go).
//
// Its output is a fully bound schedule: per-operation start/end time-steps
// and locations, plus the droplet transfers ("moves") each routing
// sub-problem must realize at every time-step boundary.
package scheduler

import (
	"fmt"
	"sort"

	"fppc/internal/arch"
	"fppc/internal/dag"
)

// LocKind classifies where a droplet or operation lives.
type LocKind int

// Droplet/operation locations.
const (
	LocNone      LocKind = iota
	LocReservoir         // an input port (Index = chip port index)
	LocMix               // FPPC mix module (Index = module index)
	LocSSD               // FPPC SSD module (Index = module index)
	LocWork              // DA work module (Index = module index, Slot = storage slot)
	LocOutput            // an output port (Index = chip port index)
)

func (k LocKind) String() string {
	switch k {
	case LocNone:
		return "none"
	case LocReservoir:
		return "reservoir"
	case LocMix:
		return "mix"
	case LocSSD:
		return "ssd"
	case LocWork:
		return "work"
	case LocOutput:
		return "output"
	}
	return fmt.Sprintf("LocKind(%d)", int(k))
}

// Location identifies a concrete droplet resting place on the chip.
type Location struct {
	Kind  LocKind
	Index int
	Slot  int // DA work modules hold up to two stored droplets
}

func (l Location) String() string {
	if l.Kind == LocWork {
		return fmt.Sprintf("%v[%d].%d", l.Kind, l.Index, l.Slot)
	}
	return fmt.Sprintf("%v[%d]", l.Kind, l.Index)
}

// MoveKind distinguishes why a droplet crosses the chip.
type MoveKind int

// Move kinds.
const (
	// MoveConsume delivers a droplet to the module/port where its
	// consuming operation runs.
	MoveConsume MoveKind = iota
	// MoveStore relocates a droplet to storage: an FPPC eviction from a
	// mix module to an SSD, a post-split parking, or a DA consolidation.
	MoveStore
	// MoveSplit routes a droplet to an SSD module where it is split; the
	// two result droplets are handled by subsequent moves/ops.
	MoveSplit
)

func (k MoveKind) String() string {
	switch k {
	case MoveConsume:
		return "consume"
	case MoveStore:
		return "store"
	case MoveSplit:
		return "split"
	}
	return fmt.Sprintf("MoveKind(%d)", int(k))
}

// Move is one droplet transfer that must be routed at a time-step
// boundary. TS is the boundary index: the move happens after time-step
// TS-1 completes and before TS begins (TS 0 precedes the schedule).
type Move struct {
	TS      int
	Droplet int
	Kind    MoveKind
	From    Location
	To      Location
	NodeID  int // consuming node for MoveConsume/MoveSplit, -1 for MoveStore
	// Away identifies, for a MoveSplit, the result droplet that leaves on
	// the transport bus (the other half stays stored in the target SSD).
	// -1 for every other kind.
	Away int
}

// BoundOp records when and where a DAG node executes.
type BoundOp struct {
	NodeID int
	Start  int // first time-step of execution
	End    int // exclusive: op occupies [Start, End)
	Loc    Location
}

// DropletRef describes one droplet (DAG edge) by id: the router uses the
// producer/consumer linkage to chain split halves correctly.
type DropletRef struct {
	ID       int
	Producer int // node id that created the droplet
	Consumer int // node id that consumes it
	ChildIdx int // which output of the producer
}

// Schedule is the fully bound result.
type Schedule struct {
	Assay    *dag.Assay
	Chip     *arch.Chip
	Ops      []BoundOp    // indexed by node id
	Moves    []Move       // ascending TS; order within a TS is unconstrained
	Droplets []DropletRef // indexed by droplet id

	Makespan     int // time-steps until the last operation completes
	StorageMoves int // relocation moves (FPPC evictions, DA consolidations)
	PeakStored   int // max droplets simultaneously parked in storage
}

// MovesSpan returns the moves of the routing sub-problem at boundary ts
// as a subslice of Moves (which is TS-ascending; Validate enforces it).
// The slice aliases the schedule — callers that modify moves must copy.
func (s *Schedule) MovesSpan(ts int) []Move {
	lo := sort.Search(len(s.Moves), func(i int) bool { return s.Moves[i].TS >= ts })
	hi := lo
	for hi < len(s.Moves) && s.Moves[hi].TS == ts {
		hi++
	}
	return s.Moves[lo:hi]
}

// MovesAt returns a fresh copy of the moves at boundary ts.
func (s *Schedule) MovesAt(ts int) []Move {
	span := s.MovesSpan(ts)
	if len(span) == 0 {
		return nil
	}
	return append([]Move(nil), span...)
}

// Boundaries returns the sorted distinct TS values with at least one
// move — a single pass, since Moves is TS-ascending.
func (s *Schedule) Boundaries() []int {
	var out []int
	for i, m := range s.Moves {
		if i == 0 || m.TS != s.Moves[i-1].TS {
			out = append(out, m.TS)
		}
	}
	return out
}

// Validate checks schedule invariants against the assay: every node
// scheduled exactly once, precedence respected, durations preserved, and
// every non-in-place consumption preceded by a delivering move.
func (s *Schedule) Validate() error {
	if len(s.Ops) != s.Assay.Len() {
		return fmt.Errorf("scheduler: %d ops for %d nodes", len(s.Ops), s.Assay.Len())
	}
	for id, op := range s.Ops {
		n := s.Assay.Node(id)
		if op.NodeID != id {
			return fmt.Errorf("scheduler: op %d records node %d", id, op.NodeID)
		}
		if op.End-op.Start != n.Duration {
			return fmt.Errorf("scheduler: node %d (%s) scheduled for %d steps, want %d",
				id, n.Label, op.End-op.Start, n.Duration)
		}
		if op.Start < 0 {
			return fmt.Errorf("scheduler: node %d starts at %d", id, op.Start)
		}
		for _, p := range n.Parents {
			if s.Ops[p].End > op.Start {
				return fmt.Errorf("scheduler: node %d starts at %d before parent %d ends at %d",
					id, op.Start, p, s.Ops[p].End)
			}
		}
		if op.End > s.Makespan {
			return fmt.Errorf("scheduler: node %d ends at %d beyond makespan %d", id, op.End, s.Makespan)
		}
	}
	for i := 1; i < len(s.Moves); i++ {
		if s.Moves[i].TS < s.Moves[i-1].TS {
			return fmt.Errorf("scheduler: moves out of TS order at %d", i)
		}
	}
	return nil
}

// droplet tracks one DAG edge's payload through scheduling.
type droplet struct {
	id       int
	producer int // node id
	consumer int // node id
	childIdx int // which output of the producer

	parked   bool
	consumed bool
	loc      Location
}

// edgeSet enumerates the droplets of an assay and indexes them by
// producer and consumer.
type edgeSet struct {
	drops  []*droplet
	byProd [][]*droplet // producer node id -> its output droplets (child order)
	byCons [][]*droplet // consumer node id -> its input droplets
}

// newEdgeSet builds the droplets in one slab, numbered producer by
// producer in child order. byProd and byCons are capped sub-slices of two
// flat index arrays: a producer's droplets are already contiguous in
// drops, and a counting pass by consumer lays out each byCons list in
// droplet order.
func newEdgeSet(a *dag.Assay) *edgeSet {
	n := a.Len()
	consStart := make([]int, n+1)
	edges := 0
	for _, nd := range a.Nodes {
		edges += len(nd.Children)
		for _, c := range nd.Children {
			consStart[c+1]++
		}
	}
	for i := 1; i <= n; i++ {
		consStart[i] += consStart[i-1]
	}
	slab := make([]droplet, edges)
	es := &edgeSet{
		drops:  make([]*droplet, edges),
		byProd: make([][]*droplet, n),
		byCons: make([][]*droplet, n),
	}
	cons := make([]*droplet, edges)
	next := consStart[:n] // consumer id -> next free slot in cons
	id := 0
	for _, nd := range a.Nodes {
		first := id
		for ci, child := range nd.Children {
			d := &slab[id]
			*d = droplet{id: id, producer: nd.ID, consumer: child, childIdx: ci}
			es.drops[id] = d
			cons[next[child]] = d
			next[child]++
			id++
		}
		if id > first {
			es.byProd[nd.ID] = es.drops[first:id:id]
		}
	}
	// next[c] now ends consumer c's run, which starts where c-1's ends.
	lo := 0
	for c := 0; c < n; c++ {
		if hi := next[c]; hi > lo {
			es.byCons[c] = cons[lo:hi:hi]
			lo = hi
		}
	}
	return es
}

// inputsParked reports whether every input droplet of the node is parked.
func (es *edgeSet) inputsParked(node int) bool {
	for _, d := range es.byCons[node] {
		if !d.parked || d.consumed {
			return false
		}
	}
	return true
}

// priorities computes the classic list-scheduling priority: the longest
// duration path from each node to any sink. order is a topological order
// of the assay (shared across the precomputation passes so the graph is
// sorted once per scheduling run).
func priorities(a *dag.Assay, order []int) []int {
	prio := make([]int, a.Len())
	for i := len(order) - 1; i >= 0; i-- {
		n := a.Nodes[order[i]]
		best := 0
		for _, c := range n.Children {
			if prio[c] > best {
				best = prio[c]
			}
		}
		prio[n.ID] = best + n.Duration
	}
	return prio
}

// ErrInsufficientResources reports a scheduling deadlock: pending work
// exists but no operation can ever start. The paper handles this by
// growing the array (Table 1's larger chips for Protein Split 5-7,
// Table 3's "-" entries).
type ErrInsufficientResources struct {
	Chip    string
	Assay   string
	TS      int
	Pending int
}

func (e *ErrInsufficientResources) Error() string {
	return fmt.Sprintf("scheduler: %s cannot run %s: no progress at time-step %d with %d operations pending",
		e.Chip, e.Assay, e.TS, e.Pending)
}

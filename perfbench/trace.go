package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span names: one per layer boundary the benchmark wraps. A layer's
// self time is its span's duration minus the time its child spans
// cover.
const (
	spOp          = "op" // one replayed operation, the root of its spans
	spDecode      = "dag.decode"
	spParse       = "asl.parse"
	spValidate    = "dag.validate"
	spFingerprint = "dag.fingerprint"
	spCanonical   = "dag.canonical"
	spNewChip     = "core.new_chip"
	spPlacePorts  = "core.place_ports"
	spSchedule    = "scheduler.schedule"
	spRoute       = "router.route"
	spVerify      = "oracle.verify"
	spReplay      = "sim.replay"
	spSubmit      = "fleet.submit"
	spReconcile   = "fleet.reconcile"
	spMigrate     = "fleet.migrate"
	spTick        = "fleet.tick"
)

// span is one recorded interval. Spans of one operation share op, and
// parent indexes the enclosing span (-1 at the root).
type span struct {
	Name   string
	Op     int
	Parent int
	Start  time.Duration // since the tracer started
	Dur    time.Duration
	// Attempt tags size-search spans with the attempt number (0 else),
	// and Failed marks spans of an attempt that did not fit.
	Attempt int
	Failed  bool
}

// tracer keeps spans in memory for one goroutine. A nil tracer records
// nothing and costs a nil check, which is how untraced runs use it.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: time.Since(t.t0)})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].Dur = time.Since(t.t0) - t.spans[i].Start
	t.stack = t.stack[:len(t.stack)-1]
}

// tag marks span i with a size-search attempt number and outcome.
func (t *tracer) tag(i, attempt int, failed bool) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].Attempt, t.spans[i].Failed = attempt, failed
}

// setOp starts the spans of operation op.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// selfTimes returns each span's self time: its duration minus the
// durations of its direct children.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
		}
	}
	return self
}

// layerTotals sums self time per span name, optionally only for spans
// of the given ops (nil: all).
func layerTotals(spans []span, keep func(op int) bool) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		if keep != nil && !keep(s.Op) {
			continue
		}
		out[s.Name] += self[i]
	}
	return out
}

// opLayerSums returns, per op, the total duration of its spans below
// the op root: the layer time the trace accounts for.
func opLayerSums(spans []span) map[int]time.Duration {
	self := selfTimes(spans)
	out := map[int]time.Duration{}
	for i, s := range spans {
		if s.Name == spOp {
			continue
		}
		out[s.Op] += self[i]
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// "X" events, one thread per op).
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		e := event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3, Pid: 1, Tid: s.Op}
		if s.Attempt > 0 {
			e.Args = map[string]any{"attempt": s.Attempt, "failed": s.Failed}
		}
		evs = append(evs, e)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Package trace is the engine's per-query observability subsystem: every
// operator (scan, join, agg, sort, window, external sort) opens a Span on
// the query's Tracer and feeds it wall time, row/byte flow, spill volume,
// compression-scheme choices, and regulator level transitions. The paper's
// whole evaluation is engine introspection — the §4.4 cycles/byte currency,
// Figure 8's utilization traces, Figure 11's spill histograms — and spans
// are the per-operator refinement of those same counters.
//
// Cost model: a nil Tracer (the default) costs one pointer comparison per
// operator per query — the hot per-tuple paths never see the tracer at all.
// With tracing on, workers accumulate into plain per-worker span buffers
// and merge into the span's shared atomics every few batches and at stream
// end, so the steady-state cost is two clock reads per batch (~1024 rows).
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/spilly-db/spilly/internal/metrics"
)

// Span records one operator's execution within a query: identity (operator
// kind, an optional label such as the scanned table), tree position, wall
// time, and flow counters. All counter methods are nil-safe so operators
// can call them unconditionally after a single tracer check at Run time.
type Span struct {
	// ID is the span's index in the tracer's span list; ParentID is the
	// enclosing operator's ID, -1 for the plan root.
	ID       int
	ParentID int
	// Op is the operator kind ("scan", "join", "agg", ...); Label carries
	// operator detail (table name, join kind, group-by columns).
	Op    string
	Label string

	tracer  *Tracer
	startNs int64        // offset from tracer start
	endNs   atomic.Int64 // last observed activity, offset from tracer start

	// busyNs accumulates worker-time spent inside this operator and
	// nowhere else: stream wrappers subtract nested child-stream time and
	// blocking phases subtract every charge descendants made during the
	// phase window (see the tracer's charged counter), so busy is
	// exclusive at the source and self time is simply busy / workers.
	busyNs atomic.Int64

	rowsOut    atomic.Int64
	batchesOut atomic.Int64

	// counters holds everything else the operator reported (see
	// metrics.Counter): materialization and spill volume, spilled pages per
	// compression scheme, readback and scan stalls, integrity work,
	// regulator activity.
	counters metrics.Counters
}

// Tracer collects the spans of one query execution. Create one per traced
// query and attach it to the execution context; a nil *Tracer disables
// tracing with near-zero overhead.
type Tracer struct {
	t0      time.Time
	workers int

	// charged totals every busy charge made to any span. Blocking phases
	// snapshot it at phase start and subtract the delta from workers×wall
	// at phase end, so time already attributed to descendants (stream
	// pulls, nested build phases) is not charged twice.
	charged atomic.Int64

	mu    sync.Mutex
	spans []*Span
	stack []*Span // Run()-time parent scope stack
}

// New returns a tracer for a query running with the given worker count
// (used to normalize summed worker-time back into wall time).
func New(workers int) *Tracer {
	if workers < 1 {
		workers = 1
	}
	return &Tracer{t0: time.Now(), workers: workers}
}

// Workers returns the worker count the tracer normalizes against.
func (t *Tracer) Workers() int {
	if t == nil {
		return 1
	}
	return t.workers
}

// Start opens a span as a child of the current scope and makes it the
// current scope. Operators call it at the top of Run and close the scope
// with EndScope once their Run body (including child Run calls) returns.
// Nil-safe: a nil tracer returns a nil span.
func (t *Tracer) Start(op, label string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{Op: op, Label: label, tracer: t, startNs: int64(time.Since(t.t0))}
	t.mu.Lock()
	s.ID = len(t.spans)
	s.ParentID = -1
	if n := len(t.stack); n > 0 {
		s.ParentID = t.stack[n-1].ID
	}
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s)
	t.mu.Unlock()
	return s
}

// EndScope pops s off the scope stack. It does not close the span — the
// span keeps accumulating counters until its stream is drained; EndScope
// only determines parentage of spans started later.
func (t *Tracer) EndScope(s *Span) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	for n := len(t.stack); n > 0; n = len(t.stack) {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		if top == s {
			break
		}
	}
	t.mu.Unlock()
}

// Spans returns the spans recorded so far, in creation order. The slice is
// a copy; the spans themselves are live and may still accumulate.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// touch advances the span's last-activity watermark.
func (s *Span) touch() {
	now := int64(time.Since(s.tracer.t0))
	for {
		cur := s.endNs.Load()
		if cur >= now || s.endNs.CompareAndSwap(cur, now) {
			return
		}
	}
}

// AddBusy records d of worker-time spent inside this operator, exclusive
// of time already charged to other spans (stream wrappers and blocking
// phases compute the exclusive share before calling).
func (s *Span) AddBusy(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.busyNs.Add(int64(d))
	s.tracer.charged.Add(int64(d))
	s.touch()
}

// Charged returns the total busy time charged to all spans so far. Blocking
// phases snapshot it before and after to compute their exclusive share.
func (t *Tracer) Charged() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.charged.Load())
}

// AddRows records rows and batches emitted by this operator.
func (s *Span) AddRows(rows, batches int64) {
	if s == nil {
		return
	}
	s.rowsOut.Add(rows)
	s.batchesOut.Add(batches)
}

// Merge folds a set of reported counters into the span.
func (s *Span) Merge(c *metrics.Snapshot) {
	if s == nil {
		return
	}
	s.counters.Merge(c)
}

// SpanSnapshot is a plain-struct copy of a span's state, safe to serialize
// (the live Span holds atomics and a mutex).
type SpanSnapshot struct {
	ID       int    `json:"id"`
	ParentID int    `json:"parent"`
	Op       string `json:"op"`
	Label    string `json:"label,omitempty"`

	Start time.Duration `json:"start_ns"` // offset from query start
	End   time.Duration `json:"end_ns"`   // last observed activity
	Busy  time.Duration `json:"busy_ns"`  // summed worker-time

	RowsOut    int64 `json:"rows_out"`
	BatchesOut int64 `json:"batches_out"`

	// Spilled reports whether the operator wrote anything to the spill array.
	Spilled bool `json:"spilled,omitempty"`

	// Snapshot holds the operator's reported counters; MarshalJSON flattens
	// the non-zero ones into the span object under their table keys.
	metrics.Snapshot `json:"-"`
}

// MarshalJSON renders the span with its non-zero counters as members of the
// same object.
func (s SpanSnapshot) MarshalJSON() ([]byte, error) {
	type header SpanSnapshot // drops this method, keeps the tags
	return s.Snapshot.MarshalWith(header(s), true)
}

// Snapshot copies the span's current state.
func (s *Span) Snapshot() SpanSnapshot {
	snap := SpanSnapshot{
		ID:         s.ID,
		ParentID:   s.ParentID,
		Op:         s.Op,
		Label:      s.Label,
		Start:      time.Duration(s.startNs),
		End:        time.Duration(s.endNs.Load()),
		Busy:       time.Duration(s.busyNs.Load()),
		RowsOut:    s.rowsOut.Load(),
		BatchesOut: s.batchesOut.Load(),
		Snapshot:   s.counters.Load(),
	}
	snap.Spilled = snap.Snapshot[metrics.SpilledBytes] > 0
	return snap
}

// Snapshots copies every span's state, in creation order (ID order).
func (t *Tracer) Snapshots() []SpanSnapshot {
	if t == nil {
		return nil
	}
	spans := t.Spans()
	out := make([]SpanSnapshot, len(spans))
	for i, s := range spans {
		out[i] = s.Snapshot()
	}
	return out
}

package exec

import (
	"sync"
	"sync/atomic"

	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/trace"
)

// Scan reads a table (in memory or from the NVMe array — the reader hides
// the difference, §5.2) with an optional projection and a pushed-down
// filter predicate.
type Scan struct {
	Table  colstore.Table
	Cols   []string // projection; nil = all columns
	Filter Expr     // boolean predicate over the projected schema; zero = none

	schema *data.Schema
	proj   []int
}

// NewScan builds a scan of the named columns (all columns when none given).
func NewScan(t colstore.Table, cols ...string) *Scan {
	s := &Scan{Table: t, Cols: cols}
	full := t.Schema()
	if len(cols) == 0 {
		s.schema = full
		for i := range full.Cols {
			s.proj = append(s.proj, i)
		}
		return s
	}
	s.schema = full.Project(cols...)
	for _, c := range cols {
		s.proj = append(s.proj, full.MustIndex(c))
	}
	return s
}

// Schema implements Node.
func (s *Scan) Schema() *data.Schema { return s.schema }

// Run implements Node.
func (s *Scan) Run(ctx *Ctx) (*Stream, error) {
	sp := ctx.Trace.Start("scan", s.Table.Name())
	defer ctx.Trace.EndScope(sp)
	var cursor atomic.Int64
	nw := ctx.workers()
	readers := make([]colstore.Reader, nw)
	var mu sync.Mutex
	hasFilter := !s.Filter.isZero()
	accs := make([]statsAcc, nw)
	selBufs := make([][]int32, nw)
	// chargeStall reports a finished (or abandoned) reader's accumulated
	// I/O stalls, exactly once per reader.
	stalled := make([]bool, nw)
	chargeStall := func(w int) {
		if stalled[w] || readers[w] == nil {
			return
		}
		stalled[w] = true
		ctx.report(sp, &metrics.Snapshot{
			metrics.ScanStallNanos: readers[w].StallNanos(),
			metrics.ScanStalls:     readers[w].Stalls(),
		})
	}
	return ctx.traceStream(&Stream{
		schema: s.schema,
		abandon: func(w int) {
			mu.Lock()
			if readers[w] != nil {
				readers[w].Close()
			}
			chargeStall(w)
			mu.Unlock()
			accs[w].flush(ctx, sp)
		},
		next: func(w int, b *data.Batch) (int, error) {
			mu.Lock()
			if readers[w] == nil {
				readers[w] = s.Table.NewReader(s.proj, &cursor, ctx.QueryID)
			}
			r := readers[w]
			mu.Unlock()
			for {
				n, err := r.Next(b)
				if err != nil || n == 0 {
					mu.Lock()
					chargeStall(w)
					mu.Unlock()
					accs[w].flush(ctx, sp)
					return 0, err
				}
				accs[w].add(ctx, sp, int64(n), batchBytes(b))
				if !hasFilter {
					return n, nil
				}
				// The filter produces a selection vector over the scan
				// batch (which may alias table storage) instead of copying
				// surviving rows out — predicates cost zero data movement.
				sel := s.Filter.EvalBool(b, nil, selBufs[w][:0])
				selBufs[w] = sel
				if len(sel) == n {
					return n, nil
				}
				if len(sel) > 0 {
					b.Sel = sel
					return len(sel), nil
				}
				// Whole batch filtered out; fetch the next morsel.
			}
		},
	}, sp), nil
}

// batchBytes estimates the raw byte volume of a batch (8 bytes per fixed
// value, string lengths for strings) — the "scanned bytes" currency of the
// paper's cycles-per-byte metric (§4.4).
func batchBytes(b *data.Batch) int64 {
	var n int64
	for i := range b.Cols {
		c := &b.Cols[i]
		if c.Type == data.String {
			for _, s := range c.S {
				n += int64(len(s))
			}
		} else {
			n += 8 * int64(b.Len())
		}
	}
	return n
}

// statsFlushRows is the per-worker row count after which accumulated scan
// statistics are reported into the shared atomic counters — batching the
// cross-core traffic instead of paying two contended atomics per batch.
const statsFlushRows = 1 << 15

// statsAcc accumulates one worker's scan counters. The fields are atomics
// only so an abandoning consumer can flush another worker's residue
// safely; in steady state each worker touches only its own (padded)
// accumulator, so the adds stay core-local.
type statsAcc struct {
	rows  atomic.Int64
	bytes atomic.Int64
	_     [112]byte // pad to a cache-line multiple against false sharing
}

func (a *statsAcc) add(ctx *Ctx, sp *trace.Span, rows, bytes int64) {
	a.bytes.Add(bytes)
	if a.rows.Add(rows) >= statsFlushRows {
		a.flush(ctx, sp)
	}
}

func (a *statsAcc) flush(ctx *Ctx, sp *trace.Span) {
	ctx.report(sp, &metrics.Snapshot{
		metrics.ScannedRows:  a.rows.Swap(0),
		metrics.ScannedBytes: a.bytes.Swap(0),
	})
}

// FilterNode filters any child stream (used when a predicate cannot be
// pushed into the scan, e.g. post-join residuals).
type FilterNode struct {
	Child Node
	Pred  Expr
}

// Schema implements Node.
func (f *FilterNode) Schema() *data.Schema { return f.Child.Schema() }

// Run implements Node.
func (f *FilterNode) Run(ctx *Ctx) (*Stream, error) {
	sp := ctx.Trace.Start("filter", "")
	in, err := f.Child.Run(ctx)
	ctx.Trace.EndScope(sp)
	if err != nil {
		return nil, err
	}
	selBufs := make([][]int32, ctx.workers())
	return ctx.traceStream(&Stream{
		schema:  in.schema,
		abandon: in.Abandon,
		next: func(w int, b *data.Batch) (int, error) {
			for {
				n, err := in.Next(w, b)
				if err != nil || n == 0 {
					return 0, err
				}
				// Refine the child's selection vector (if any) in our own
				// buffer; rows stay in place.
				sel := f.Pred.EvalBool(b, b.Sel, selBufs[w][:0])
				selBufs[w] = sel
				if len(sel) == b.Len() {
					b.Sel = nil
					return n, nil
				}
				if len(sel) > 0 {
					b.Sel = sel
					return len(sel), nil
				}
			}
		},
	}, sp), nil
}

// Project computes expressions over the child stream.
type Project struct {
	Child Node
	Names []string
	Exprs []Expr

	schema *data.Schema
}

// NewProject builds a projection; names and exprs correspond pairwise.
func NewProject(child Node, names []string, exprs []Expr) *Project {
	p := &Project{Child: child, Names: names, Exprs: exprs}
	sch := &data.Schema{}
	for i, n := range names {
		sch.Cols = append(sch.Cols, data.ColumnDef{Name: n, Type: exprs[i].Type})
	}
	p.schema = sch
	return p
}

// Schema implements Node.
func (p *Project) Schema() *data.Schema { return p.schema }

// Run implements Node.
func (p *Project) Run(ctx *Ctx) (*Stream, error) {
	sp := ctx.Trace.Start("project", "")
	in, err := p.Child.Run(ctx)
	ctx.Trace.EndScope(sp)
	if err != nil {
		return nil, err
	}
	scratchPool := ctx.BatchPool(in.schema)
	return ctx.traceStream(&Stream{
		schema:  p.schema,
		abandon: in.Abandon,
		next: func(w int, b *data.Batch) (int, error) {
			tmp := scratchPool.Get()
			defer tmp.Release()
			n, err := in.Next(w, tmp)
			if err != nil || n == 0 {
				return 0, err
			}
			b.Reset()
			projectInto(b, tmp, p.Exprs)
			return n, nil
		},
	}, sp), nil
}

// projectInto evaluates exprs over every live row of in, appending the
// dense results to out. Each expression runs as one batch kernel straight
// into the output column.
func projectInto(out, in *data.Batch, exprs []Expr) {
	n := in.Rows()
	for i, e := range exprs {
		c := &out.Cols[i]
		switch e.Type {
		case data.Float64:
			m := len(c.F)
			c.F = grow(c.F, n)
			e.EvalF(in, in.Sel, c.F[m:])
		case data.String:
			m := len(c.S)
			c.S = grow(c.S, n)
			e.EvalS(in, in.Sel, c.S[m:])
		default:
			m := len(c.I)
			c.I = grow(c.I, n)
			e.EvalI(in, in.Sel, c.I[m:])
		}
	}
	out.SetLen(out.Len() + n)
}

// ValuesNode exposes a pre-computed batch as a plan node (scalar subquery
// results, tiny literal relations).
type ValuesNode struct {
	Batch *data.Batch
}

// Schema implements Node.
func (v *ValuesNode) Schema() *data.Schema { return v.Batch.Schema }

// Run implements Node.
func (v *ValuesNode) Run(ctx *Ctx) (*Stream, error) {
	var taken atomic.Bool
	return &Stream{
		schema: v.Batch.Schema,
		next: func(w int, b *data.Batch) (int, error) {
			if taken.Swap(true) {
				return 0, nil
			}
			b.Reset()
			for r := 0; r < v.Batch.Len(); r++ {
				b.AppendRowFrom(v.Batch, r)
			}
			return v.Batch.Len(), nil
		},
	}, nil
}

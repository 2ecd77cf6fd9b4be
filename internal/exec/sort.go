package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/metrics"
)

// SortKey orders by one column.
type SortKey struct {
	Col  string
	Desc bool
}

// Sort materializes, orders, and optionally limits its input. TPC-H result
// sets are small (the heavy lifting happens in joins and aggregations), so
// the sort gathers rows into memory and emits a single ordered morsel.
type Sort struct {
	Child Node
	Keys  []SortKey
	Limit int // 0 = unlimited
}

// Schema implements Node.
func (s *Sort) Schema() *data.Schema { return s.Child.Schema() }

// Run implements Node.
func (s *Sort) Run(ctx *Ctx) (*Stream, error) {
	sp := ctx.Trace.Start("sort", sortLabel(s.Keys))
	defer ctx.Trace.EndScope(sp)
	pc := ctx.phaseStart()
	in, err := s.Child.Run(ctx)
	if err != nil {
		return nil, err
	}
	schema := s.Child.Schema()
	all := ctx.BatchPool(schema).Get()
	defer all.Release()
	var mu sync.Mutex
	err = Drain(ctx, in, func(w int, b *data.Batch) error {
		mu.Lock()
		defer mu.Unlock()
		for i, n := 0, b.Rows(); i < n; i++ {
			all.AppendRowFrom(b, b.Row(i))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	keyCols := make([]int, len(s.Keys))
	for i, k := range s.Keys {
		keyCols[i] = schema.MustIndex(k.Col)
	}
	idx := make([]int, all.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		a, b := idx[x], idx[y]
		for i, c := range keyCols {
			cmp := compareRows(all, c, a, b)
			if cmp == 0 {
				continue
			}
			if s.Keys[i].Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	if s.Limit > 0 && len(idx) > s.Limit {
		idx = idx[:s.Limit]
	}

	out := data.NewBatch(schema, len(idx))
	for _, r := range idx {
		out.AppendRowFrom(all, r)
	}
	ctx.report(sp, &metrics.Snapshot{metrics.TuplesStored: int64(all.Len())})
	ctx.spanPhase(sp, pc)
	var taken atomic.Bool
	return ctx.traceStream(&Stream{
		schema: schema,
		next: func(w int, b *data.Batch) (int, error) {
			if taken.Swap(true) || out.Len() == 0 {
				return 0, nil
			}
			b.Reset()
			for r := 0; r < out.Len(); r++ {
				b.AppendRowFrom(out, r)
			}
			return out.Len(), nil
		},
	}, sp), nil
}

// sortLabel renders the sort keys for the profile span.
func sortLabel(keys []SortKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k.Col
		if k.Desc {
			parts[i] += " desc"
		}
	}
	return strings.Join(parts, ",")
}

// compareRows orders rows a and b of batch on column c; NULL sorts first.
func compareRows(batch *data.Batch, c, a, b int) int {
	col := &batch.Cols[c]
	an := col.Null != nil && col.Null[a]
	bn := col.Null != nil && col.Null[b]
	if an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		default:
			return 1
		}
	}
	switch col.Type {
	case data.Float64:
		switch {
		case col.F[a] < col.F[b]:
			return -1
		case col.F[a] > col.F[b]:
			return 1
		}
	case data.String:
		switch {
		case col.S[a] < col.S[b]:
			return -1
		case col.S[a] > col.S[b]:
			return 1
		}
	default:
		switch {
		case col.I[a] < col.I[b]:
			return -1
		case col.I[a] > col.I[b]:
			return 1
		}
	}
	return 0
}

// Limit truncates its input to n rows (without ordering).
type Limit struct {
	Child Node
	N     int
}

// Schema implements Node.
func (l *Limit) Schema() *data.Schema { return l.Child.Schema() }

// Run implements Node.
func (l *Limit) Run(ctx *Ctx) (*Stream, error) {
	sp := ctx.Trace.Start("limit", fmt.Sprintf("n=%d", l.N))
	in, err := l.Child.Run(ctx)
	ctx.Trace.EndScope(sp)
	if err != nil {
		return nil, err
	}
	var taken atomic.Int64
	return ctx.traceStream(&Stream{
		schema:  l.Child.Schema(),
		abandon: in.Abandon,
		next: func(w int, b *data.Batch) (int, error) {
			if taken.Load() >= int64(l.N) {
				return 0, nil
			}
			n, err := in.Next(w, b)
			if err != nil || n == 0 {
				return 0, err
			}
			have := taken.Add(int64(n))
			if over := have - int64(l.N); over > 0 {
				keep := n - int(over)
				if keep <= 0 {
					return 0, nil
				}
				trimBatch(b, keep)
				return keep, nil
			}
			return n, nil
		},
	}, sp), nil
}

// trimBatch truncates b to its first n live rows. When a selection vector
// is set, trimming the vector suffices — the columns stay untouched.
func trimBatch(b *data.Batch, n int) {
	if b.Sel != nil {
		b.Sel = b.Sel[:n]
		return
	}
	for i := range b.Cols {
		c := &b.Cols[i]
		if c.I != nil {
			c.I = c.I[:n]
		}
		if c.F != nil {
			c.F = c.F[:n]
		}
		if c.S != nil {
			c.S = c.S[:n]
		}
		if c.Null != nil {
			c.Null = c.Null[:n]
		}
	}
	b.SetLen(n)
}

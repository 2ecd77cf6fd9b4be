package exec

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/trace"
)

// WindowFunc is a window aggregate.
type WindowFunc int

// Window functions.
const (
	WRowNumber WindowFunc = iota
	WRank
	WSum
	WCount
	WAvg
	WMin
	WMax
)

// FrameKind selects the window frame.
type FrameKind int

// Frames: the whole partition, the running prefix (UNBOUNDED PRECEDING TO
// CURRENT ROW), or a sliding ROWS frame [Lo, Hi] relative to the current
// row.
const (
	FrameAll FrameKind = iota
	FrameRunning
	FrameRows
)

// WindowSpec is one window function: Func over column Col (ignored for
// WRowNumber/WRank), named As, evaluated over Frame.
type WindowSpec struct {
	Func   WindowFunc
	Col    string
	As     string
	Frame  FrameKind
	Lo, Hi int // FrameRows offsets relative to the current row (Lo <= Hi)
}

// Window is a hash-based window operator built on Umami — the §4.7
// extension the paper names as a direct beneficiary of adaptive
// materialization. Input rows materialize through a per-thread Umami
// buffer hashed by the PARTITION BY keys, so the operator adaptively
// partitions and spills exactly like the unified join and aggregation;
// phase 2 groups each hash partition's rows (in-memory and read back),
// sorts every window partition, and evaluates the functions — sliding
// MIN/MAX frames via the segment tree approach the paper cites.
type Window struct {
	Child       Node
	PartitionBy []string
	OrderBy     []SortKey
	Funcs       []WindowSpec

	schema *data.Schema
}

// NewWindow constructs a window node. The output schema is the child's
// columns followed by one column per window function.
func NewWindow(child Node, partitionBy []string, orderBy []SortKey, funcs []WindowSpec) *Window {
	w := &Window{Child: child, PartitionBy: partitionBy, OrderBy: orderBy, Funcs: funcs}
	out := &data.Schema{Cols: append([]data.ColumnDef{}, child.Schema().Cols...)}
	in := child.Schema()
	for i, f := range funcs {
		name := f.As
		if name == "" {
			name = fmt.Sprintf("w%d", i)
		}
		t := data.Float64
		switch f.Func {
		case WRowNumber, WRank, WCount:
			t = data.Int64
		case WMin, WMax:
			t = in.Cols[in.MustIndex(f.Col)].Type
		}
		out.Cols = append(out.Cols, data.ColumnDef{Name: name, Type: t})
	}
	w.schema = out
	return w
}

// Schema implements Node.
func (w *Window) Schema() *data.Schema { return w.schema }

// Run implements Node.
func (w *Window) Run(ctx *Ctx) (*Stream, error) {
	if err := checkSchemaCols(w.Child.Schema(), append(sortCols(w.OrderBy), w.PartitionBy...)); err != nil {
		return nil, err
	}
	var label string
	if len(w.PartitionBy) > 0 {
		label = "by=" + strings.Join(w.PartitionBy, ",")
	}
	sp := ctx.Trace.Start("window", label)
	defer ctx.Trace.EndScope(sp)
	pc := ctx.phaseStart()
	in, err := w.Child.Run(ctx)
	if err != nil {
		return nil, err
	}
	inSchema := w.Child.Schema()
	rc := data.NewRowCodec(inSchema.Types())
	partCols := indicesOf(inSchema, w.PartitionBy)

	shared := core.NewShared(ctx.coreConfig())
	err = drainWorkers(ctx, "window", in, func(int) (func(*data.Batch) error, func() error) {
		buf := shared.NewBuffer()
		be := getBatchEncoder()
		consume := func(b *data.Batch) error {
			// Batch materialization, as in the join build: hashing,
			// sizing, and encoding all run column-at-a-time.
			be.materialize(buf, rc, b, partCols)
			return nil
		}
		finish := func() error {
			batchEncoders.Put(be)
			return buf.Finish()
		}
		return consume, finish
	})
	if err != nil {
		return nil, err
	}
	res, err := ctx.finalize(sp, shared)
	if err != nil {
		return nil, err
	}
	ctx.spanPhase(sp, pc)
	return w.outputStream(ctx, sp, res, rc, partCols)
}

// outputStream evaluates windows hash-partition-wise. Unpartitioned pages
// are routed to their hash partitions first (a window partition's rows may
// be split between the unpartitioned head and its hash partition).
func (w *Window) outputStream(ctx *Ctx, sp *trace.Span, res *core.Result, rc *data.RowCodec, partCols []int) (*Stream, error) {
	shiftP := uint(64 - log2(uint64(res.Partitions)))
	routed := make([][][]byte, res.Partitions)
	for _, pg := range res.Unpartitioned {
		for t := 0; t < pg.Tuples(); t++ {
			tuple := pg.Tuple(t)
			p := int(rc.HashTuple(tuple, partCols) >> shiftP)
			routed[p] = append(routed[p], tuple)
		}
	}
	// Spilled partitions stream back through the readback scheduler in the
	// same ascending order workers claim them, so partition k+1's reads are
	// in flight while partition k's windows are sorted and evaluated.
	itemOf := make([]int, res.Partitions)
	var items []core.PartitionWork
	for p := 0; p < res.Partitions; p++ {
		itemOf[p] = -1
		if len(res.Spilled[p]) > 0 {
			itemOf[p] = len(items)
			items = append(items, core.PartitionWork{Part: p, Slots: res.Spilled[p]})
		}
	}
	var sched *core.PartitionScheduler
	if len(items) > 0 {
		sched = ctx.newPartitionScheduler(items, res.Stripes, core.DefaultReadDepth)
	}
	ord := newTupleOrder(rc, w.Child.Schema(), w.OrderBy)
	var cursor atomic.Int64
	// Once every worker has run out of partitions, every window is emitted
	// (its values copied out) and the in-memory pages are dead.
	end := newOutputEnd(ctx.workers(), res.Recycle)
	return ctx.traceStream(&Stream{
		schema: w.schema,
		next: func(wk int, b *data.Batch) (int, error) {
			var arena data.ByteArena
			for {
				p := int(cursor.Add(1) - 1)
				if p >= res.Partitions {
					end.reach(wk)
					return 0, nil
				}
				tuples := append([][]byte(nil), routed[p]...)
				for _, pg := range res.InMemoryByPart(p) {
					for t := 0; t < pg.Tuples(); t++ {
						tuples = append(tuples, pg.Tuple(t))
					}
				}
				var cur *core.PartitionCursor
				if itemOf[p] >= 0 {
					cur = sched.Open(itemOf[p])
					for {
						pg, err := cur.Next()
						if err != nil {
							ctx.reportCursor(sp, cur)
							return 0, fmt.Errorf("exec: window reading partition %d: %w", p, err)
						}
						if pg == nil {
							break
						}
						for t := 0; t < pg.Tuples(); t++ {
							tuples = append(tuples, pg.Tuple(t))
						}
					}
					ctx.reportCursor(sp, cur)
				}
				if len(tuples) == 0 {
					continue
				}
				b.Reset()
				w.evalPartition(b, tuples, rc, partCols, ord, &arena)
				// The batch owns its values now (strings arena-interned), so
				// the read-back buffers can be recycled.
				if cur != nil {
					cur.Release()
				}
				if b.Len() > 0 {
					return b.Len(), nil
				}
			}
		},
	}, sp), nil
}

// evalPartition groups one hash partition's tuples into window partitions,
// sorts each, evaluates the functions, and emits.
func (w *Window) evalPartition(out *data.Batch, tuples [][]byte, rc *data.RowCodec, partCols []int, ord *tupleOrder, arena *data.ByteArena) {
	// Group by exact partition keys.
	groups := map[string][]int{}
	scratch := make([]byte, 0, 64)
	for i, tup := range tuples {
		var key string
		scratch, key = windowKey(rc, tup, partCols, scratch)
		groups[key] = append(groups[key], i)
	}
	for _, idxs := range groups {
		// Sort the window partition by ORDER BY; ties keep arrival order.
		slices.SortStableFunc(idxs, func(a, b int) int { return ord.compare(tuples[a], tuples[b]) })
		w.emitGroup(out, tuples, idxs, rc, ord, arena)
	}
}

// windowKey canonicalizes the partition key fields of a tuple.
func windowKey(rc *data.RowCodec, tup []byte, cols []int, scratch []byte) ([]byte, string) {
	scratch = scratch[:0]
	for _, c := range cols {
		if rc.IsNull(tup, c) {
			scratch = append(scratch, 1)
			continue
		}
		scratch = append(scratch, 0)
		if rc.Types()[c] == data.String {
			s := rc.StrBytes(tup, c)
			scratch = append(scratch, byte(len(s)), byte(len(s)>>8))
			scratch = append(scratch, s...)
		} else {
			v := rc.Int(tup, c)
			for k := 0; k < 8; k++ {
				scratch = append(scratch, byte(v>>(8*k)))
			}
		}
	}
	return scratch, string(scratch)
}

// emitGroup evaluates every window function over one sorted window
// partition and appends the output rows. Per function, the group is
// preprocessed once: prefix sums for SUM/COUNT/AVG, a segment tree for
// sliding MIN/MAX (the approach of the paper's citation [54]).
func (w *Window) emitGroup(out *data.Batch, tuples [][]byte, idxs []int, rc *data.RowCodec, ord *tupleOrder, arena *data.ByteArena) {
	inSchema := w.Child.Schema()
	n := len(idxs)
	nIn := inSchema.Len()

	type funcState struct {
		col    int
		prefix []float64 // prefix sums of values (Sum/Avg)
		counts []int64   // prefix counts of non-NULL values
		tree   *segTree
	}
	states := make([]funcState, len(w.Funcs))
	for fi, f := range w.Funcs {
		if f.Func == WRowNumber || f.Func == WRank {
			continue
		}
		col := inSchema.MustIndex(f.Col)
		states[fi].col = col
		switch f.Func {
		case WSum, WAvg, WCount:
			prefix := make([]float64, n+1)
			counts := make([]int64, n+1)
			for i := 0; i < n; i++ {
				t := tuples[idxs[i]]
				prefix[i+1] = prefix[i]
				counts[i+1] = counts[i]
				if rc.IsNull(t, col) {
					continue
				}
				if rc.Types()[col] == data.Float64 {
					prefix[i+1] += rc.Float(t, col)
				} else {
					prefix[i+1] += float64(rc.Int(t, col))
				}
				counts[i+1]++
			}
			states[fi].prefix = prefix
			states[fi].counts = counts
		case WMin, WMax:
			states[fi].tree = newSegTree(f.Func == WMin, tuples, idxs, rc, col)
		}
	}

	rank := int64(1)
	for r := 0; r < n; r++ {
		if r > 0 && ord.compare(tuples[idxs[r-1]], tuples[idxs[r]]) != 0 {
			rank = int64(r) + 1
		}
		for fi, f := range w.Funcs {
			col := &out.Cols[nIn+fi]
			lo, hi := 0, n-1
			switch f.Frame {
			case FrameRunning:
				hi = r
			case FrameRows:
				lo, hi = r+f.Lo, r+f.Hi
				if lo < 0 {
					lo = 0
				}
				if hi > n-1 {
					hi = n - 1
				}
			}
			var v winVal
			if lo <= hi {
				st := &states[fi]
				switch f.Func {
				case WRowNumber:
					v.i = int64(r + 1)
				case WRank:
					v.i = rank
				case WSum:
					v.f = st.prefix[hi+1] - st.prefix[lo]
				case WCount:
					v.i = st.counts[hi+1] - st.counts[lo]
				case WAvg:
					if cnt := st.counts[hi+1] - st.counts[lo]; cnt > 0 {
						v.f = (st.prefix[hi+1] - st.prefix[lo]) / float64(cnt)
					}
				case WMin, WMax:
					v = st.tree.query(lo, hi+1)
				}
			}
			switch col.Type {
			case data.Float64:
				col.F = append(col.F, v.f)
			case data.String:
				col.S = append(col.S, v.s)
			default:
				col.I = append(col.I, v.i)
			}
		}
		// The input row's own columns; this also counts the row.
		rc.AppendToArena(out, tuples[idxs[r]], arena)
	}
}

// winVal is one window function value, and for MIN/MAX whether its frame
// held a non-NULL input.
type winVal struct {
	i    int64
	f    float64
	s    string
	seen bool
}

// segTree answers MIN/MAX range queries over one window partition in
// O(log n) per frame — the segment tree technique of the paper's window
// function citation [54].
type segTree struct {
	typ   data.Type
	min   bool
	nodes []winVal
	size  int
}

func newSegTree(min bool, tuples [][]byte, idxs []int, rc *data.RowCodec, col int) *segTree {
	n := len(idxs)
	t := &segTree{typ: rc.Types()[col], min: min, size: n}
	t.nodes = make([]winVal, 2*n)
	for i := 0; i < n; i++ {
		tup := tuples[idxs[i]]
		v := winVal{seen: !rc.IsNull(tup, col)}
		if v.seen {
			switch t.typ {
			case data.Float64:
				v.f = rc.Float(tup, col)
			case data.String:
				v.s = rc.Str(tup, col)
			default:
				v.i = rc.Int(tup, col)
			}
		}
		t.nodes[n+i] = v
	}
	for i := n - 1; i > 0; i-- {
		t.nodes[i] = t.combine(t.nodes[2*i], t.nodes[2*i+1])
	}
	return t
}

func (t *segTree) combine(a, b winVal) winVal {
	if !a.seen {
		return b
	}
	if !b.seen {
		return a
	}
	better := false
	switch t.typ {
	case data.Float64:
		better = (t.min && b.f < a.f) || (!t.min && b.f > a.f)
	case data.String:
		better = (t.min && b.s < a.s) || (!t.min && b.s > a.s)
	default:
		better = (t.min && b.i < a.i) || (!t.min && b.i > a.i)
	}
	if better {
		return b
	}
	return a
}

// query returns the aggregate over [lo, hi).
func (t *segTree) query(lo, hi int) winVal {
	var acc winVal
	lo += t.size
	hi += t.size
	for lo < hi {
		if lo&1 == 1 {
			acc = t.combine(acc, t.nodes[lo])
			lo++
		}
		if hi&1 == 1 {
			hi--
			acc = t.combine(acc, t.nodes[hi])
		}
		lo >>= 1
		hi >>= 1
	}
	return acc
}

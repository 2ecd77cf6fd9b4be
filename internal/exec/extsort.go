package exec

import (
	"bytes"
	"cmp"
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/trace"
)

// SortKey orders by one column.
type SortKey struct {
	Col  string
	Desc bool
}

// ExtSort is the engine's sort: an external merge sort, and an implementation
// of the sorting direction the paper leaves as future work (§4.7 "applying
// adaptive materialization to other operators, such as sorting"). Workers
// generate sorted runs bounded by the memory budget; a run that does not fit
// goes through Umami, its worker's core.Buffer writing it as an ordered page
// sequence (Buffer.SpillRun). A k-way merge streams the ordered result,
// reading spilled runs back through one partition scheduler, a run per work
// item. In memory (no budget pressure) it degenerates to one sorted run per
// worker and a merge — no I/O.
//
// With a Limit, each worker keeps a bounded top-k: whenever it holds 2·Limit
// tuples it sorts them and keeps the first Limit, and a run is cut to Limit
// tuples before it spills.
//
// Rows equal on every key come out in the order of their encoded tuple bytes:
// the data.RowCodec layout, so the null bitmap first, then each column's
// 8-byte little-endian slot in schema order, then the string bodies. The
// output, and the rows a Limit keeps, therefore depend only on the input
// rows — not on the worker count, on which worker took which morsel, or on
// whether runs spilled.
type ExtSort struct {
	Child Node
	Keys  []SortKey
	Limit int // 0 = unlimited
}

// Schema implements Node.
func (s *ExtSort) Schema() *data.Schema { return s.Child.Schema() }

// Run implements Node.
func (s *ExtSort) Run(ctx *Ctx) (*Stream, error) {
	if err := checkSchemaCols(s.Child.Schema(), sortCols(s.Keys)); err != nil {
		return nil, err
	}
	sp := ctx.Trace.Start("extsort", sortLabel(s.Keys))
	defer ctx.Trace.EndScope(sp)
	pc := ctx.phaseStart()
	in, err := s.Child.Run(ctx)
	if err != nil {
		return nil, err
	}
	schema := s.Child.Schema()
	rc := data.NewRowCodec(schema.Types())
	ord := newTupleOrder(rc, schema, s.Keys)
	shared := core.NewShared(ctx.coreConfig())

	var mu sync.Mutex
	var resident []*runCursor
	var residentBytes int64
	// Resident runs keep their backing pages until the merge has streamed
	// them out; then their buffers are recycled — at the merge's end, or at
	// query end when it never gets there. Their budget reservation is
	// returned at query end, like a result's (core.Result.Recycle).
	recycleResident := sync.OnceFunc(func() {
		for _, run := range resident {
			for _, p := range run.pgs {
				p.Recycle()
			}
		}
	})
	ctx.AddCleanup(func() {
		recycleResident()
		ctx.Budget.Release(residentBytes)
	})
	err = drainWorkers(ctx, "sort", in, func(int) (func(*data.Batch) error, func() error) {
		g := &runGenerator{
			rc: rc, cmp: ord.order, limit: s.Limit, budget: ctx.Budget,
			pool: pages.NewPool(shared.Config().PageSize, 0, ctx.Budget),
			buf:  shared.NewBuffer(),
		}
		finish := func() error {
			run := g.finish()
			ctx.report(sp, &metrics.Snapshot{metrics.TuplesStored: g.tuples})
			if run != nil {
				mu.Lock()
				resident = append(resident, run)
				for _, p := range run.pgs {
					residentBytes += int64(p.Size())
				}
				mu.Unlock()
			}
			return g.buf.Finish()
		}
		return g.add, finish
	})
	if err != nil {
		return nil, err
	}
	res, err := ctx.finalize(sp, shared)
	if err != nil {
		return nil, err
	}
	ctx.spanPhase(sp, pc)
	return s.mergeStream(ctx, sp, resident, res, rc, ord, recycleResident)
}

// sortCols returns the keys' column names.
func sortCols(keys []SortKey) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.Col
	}
	return out
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

// tupleOrder compares encoded tuples on sort keys, each resolved once to its
// null bit, its slot offset and its type. Integer and date keys compare their
// 8-byte slots as the join probe compares keys, without a per-field accessor.
// NULL sorts first, then a descending key flips the comparison.
type tupleOrder struct {
	keys []orderKey
}

type orderKey struct {
	nullByte int
	nullBit  byte
	slot     int
	typ      data.Type
	desc     bool
}

func newTupleOrder(rc *data.RowCodec, schema *data.Schema, keys []SortKey) *tupleOrder {
	o := &tupleOrder{keys: make([]orderKey, len(keys))}
	for i, k := range keys {
		f := schema.MustIndex(k.Col)
		o.keys[i] = orderKey{nullByte: f / 8, nullBit: 1 << uint(f%8), slot: rc.FieldOffset(f), typ: rc.Types()[f], desc: k.Desc}
	}
	return o
}

// compare orders a and b by the keys alone; 0 means equal on every key.
func (o *tupleOrder) compare(a, b []byte) int {
	for i := range o.keys {
		k := &o.keys[i]
		if c := k.compare(a, b); c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// order is the sort's total order: the keys, then the encoded bytes.
func (o *tupleOrder) order(a, b []byte) int {
	if c := o.compare(a, b); c != 0 {
		return c
	}
	return bytes.Compare(a, b)
}

func (k *orderKey) compare(a, b []byte) int {
	an, bn := a[k.nullByte]&k.nullBit != 0, b[k.nullByte]&k.nullBit != 0
	if an || bn {
		switch {
		case an == bn:
			return 0
		case an:
			return -1
		}
		return 1
	}
	x, y := binary.LittleEndian.Uint64(a[k.slot:]), binary.LittleEndian.Uint64(b[k.slot:])
	switch k.typ {
	case data.Float64:
		fx, fy := math.Float64frombits(x), math.Float64frombits(y)
		switch {
		case fx < fy:
			return -1
		case fx > fy:
			return 1
		}
		return 0
	case data.String:
		// A string slot is (u32 offset | u32 length << 32).
		return bytes.Compare(a[uint32(x):uint32(x)+uint32(x>>32)], b[uint32(y):uint32(y)+uint32(y>>32)])
	}
	return cmp.Compare(int64(x), int64(y))
}

// runGenerator accumulates one worker's tuples into pages; when the budget
// runs out it sorts them and hands them to the worker's Umami buffer as one
// run.
type runGenerator struct {
	rc     *data.RowCodec
	cmp    func(a, b []byte) int
	limit  int
	budget *pages.Budget
	pool   *pages.Pool
	buf    *core.Buffer

	cur    *pages.Page
	pgs    []*pages.Page
	spare  []*pages.Page // topK's other page list, reused trim after trim
	tups   [][]byte
	tuples int64
}

// add encodes the live rows of b onto the generator's pages.
func (g *runGenerator) add(b *data.Batch) error {
	for i, n := 0, b.Rows(); i < n; i++ {
		r := b.Row(i)
		size := g.rc.Size(b, r)
		if g.cur == nil || !g.cur.HasSpace(size) {
			if g.budget.Exhausted(g.pool.PageSize()) && len(g.pgs) > 0 {
				if err := g.spillRun(); err != nil {
					return err
				}
			}
			g.newPage()
		}
		dst, ok := g.cur.Alloc(size)
		if !ok {
			return fmt.Errorf("exec: sort tuple of %d bytes exceeds page size", size)
		}
		g.rc.Encode(dst, b, r)
		g.tups = append(g.tups, dst)
		g.tuples++
		if g.limit > 0 && len(g.tups) == 2*g.limit {
			g.topK()
		}
	}
	return nil
}

func (g *runGenerator) newPage() {
	g.cur = g.pool.Get()
	g.pgs = append(g.pgs, g.cur)
}

// topK keeps the first limit of the 2·limit tuples held: it copies them onto
// pages from the pool and gives the old pages back to it for the next fill.
func (g *runGenerator) topK() {
	slices.SortFunc(g.tups, g.cmp)
	old := g.pgs
	g.pgs, g.cur = g.spare[:0], nil
	keep := g.tups[:g.limit]
	g.tups = g.tups[:0]
	for _, t := range keep {
		if g.cur == nil || !g.cur.HasSpace(len(t)) {
			g.newPage()
		}
		dst, _ := g.cur.Alloc(len(t))
		copy(dst, t)
		g.tups = append(g.tups, dst)
	}
	for _, p := range old {
		g.pool.Put(p)
	}
	g.spare = old
}

// sorted sorts the tuples held and returns those a run keeps: all of them,
// or the first limit.
func (g *runGenerator) sorted() [][]byte {
	slices.SortFunc(g.tups, g.cmp)
	if g.limit > 0 && len(g.tups) > g.limit {
		return g.tups[:g.limit]
	}
	return g.tups
}

// spillRun sorts the accumulated run, hands it to the buffer in order and
// returns its input pages to the budget and their buffers to the recycler.
// The run's writes complete while the next run accumulates.
func (g *runGenerator) spillRun() error {
	run := g.sorted()
	err := g.buf.SpillRun(len(run), func(i int) []byte { return run[i] })
	for _, p := range g.pgs {
		g.pool.Discard(p)
	}
	g.pgs, g.tups, g.cur = g.pgs[:0], g.tups[:0], nil
	return err
}

// finish sorts the resident tail into a final in-memory run (zero copy: the
// run keeps the backing pages plus the sorted tuples), or returns nil. The
// pages topK gave back go to the budget.
func (g *runGenerator) finish() *runCursor {
	g.pool.Close()
	if len(g.tups) == 0 {
		return nil
	}
	return &runCursor{pgs: g.pgs, tups: g.sorted()}
}

// runCursor iterates one sorted run's tuples in order: a resident run's
// tuples on their pages, or a spilled run's pages as its readback cursor
// hands them out.
type runCursor struct {
	pgs  []*pages.Page
	tups [][]byte
	pcur *core.PartitionCursor
	page *pages.Page
	i    int
}

// next returns the run's next tuple, or nil at end.
func (c *runCursor) next() ([]byte, error) {
	if c.pcur == nil {
		if c.i == len(c.tups) {
			return nil, nil
		}
		c.i++
		return c.tups[c.i-1], nil
	}
	for c.page == nil || c.i == c.page.Tuples() {
		p, err := c.pcur.Next()
		if err != nil {
			return nil, err
		}
		if p == nil {
			c.pcur.Release()
			return nil, nil
		}
		// The merge copies each tuple it emits into the output batch's
		// arena, so the run's earlier pages are dead.
		c.pcur.ReleaseEarlier()
		c.page, c.i = p, 0
	}
	c.i++
	return c.page.Tuple(c.i - 1), nil
}

// mergeStream k-way merges the resident runs and the spilled runs of res.
// The spilled runs are all open at once, so they share the readback depth; as
// the merge recycles what it has passed, a run holds at most depth+1 blocks.
// The merge itself is sequential (one worker drives it; the others see
// end-of-stream immediately), which is inherent to order-preserving output.
func (s *ExtSort) mergeStream(ctx *Ctx, sp *trace.Span, runs []*runCursor, res *core.Result, rc *data.RowCodec, ord *tupleOrder, recycleResident func()) (*Stream, error) {
	var spilled []*core.PartitionCursor
	if len(res.Runs) > 0 {
		sched := ctx.newPartitionScheduler(res.Runs, res.Stripes, max(1, core.DefaultReadDepth/len(res.Runs)))
		for i := range res.Runs {
			spilled = append(spilled, sched.Open(i))
			runs = append(runs, &runCursor{pcur: spilled[i]})
		}
	}
	h := &mergeHeap{ord: ord}
	for _, cur := range runs {
		t, err := cur.next()
		if err != nil {
			return nil, err
		}
		if t != nil {
			h.items = append(h.items, mergeItem{tuple: t, cur: cur})
		}
	}
	heap.Init(h)

	var mu sync.Mutex
	emitted := 0
	var arena data.ByteArena // guarded by mu (single-producer merge)
	return ctx.traceStream(&Stream{
		schema: s.Child.Schema(),
		next: func(w int, b *data.Batch) (int, error) {
			// Ordered output is single-producer by nature: deliver the
			// merged stream through worker 0 only, so consumers that
			// append batches in arrival order preserve the sort order.
			if w != 0 {
				return 0, nil
			}
			mu.Lock()
			defer mu.Unlock()
			b.Reset()
			for b.Len() < 1024 && h.Len() > 0 && (s.Limit == 0 || emitted < s.Limit) {
				item := h.items[0]
				rc.AppendToArena(b, item.tuple, &arena)
				emitted++
				t, err := item.cur.next()
				if err != nil {
					return 0, err
				}
				if t == nil {
					heap.Pop(h)
				} else {
					h.items[0].tuple = t
					heap.Fix(h, 0)
				}
			}
			if b.Len() == 0 {
				// The merge is over: hand over each run's readback
				// counters, recycle what a Limit left unread, and end the
				// runs' pages — every tuple emitted was copied out.
				for _, pcur := range spilled {
					ctx.reportCursor(sp, pcur)
					pcur.Release()
				}
				spilled = nil
				h.items = nil
				recycleResident()
				res.Recycle()
			}
			return b.Len(), nil
		},
	}, sp), nil
}

type mergeItem struct {
	tuple []byte
	cur   *runCursor
}

type mergeHeap struct {
	items []mergeItem
	ord   *tupleOrder
}

func (h *mergeHeap) Len() int           { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool { return h.ord.order(h.items[i].tuple, h.items[j].tuple) < 0 }
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x interface{}) { h.items = append(h.items, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

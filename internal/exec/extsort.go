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
	// Runs are the sort's only streams: no hash partition ever fills.
	cfg := ctx.coreConfig()
	cfg.Partitions, cfg.Mode = 1, core.ModeNeverPartition
	shared := ctx.newShared(cfg)

	var mu sync.Mutex
	var resident []*runCursor
	err = drainWorkers(ctx, "sort", in, func(int) (func(*data.Batch) error, func() error) {
		g := &runGenerator{rc: rc, cmp: ord.order, limit: s.Limit, buf: shared.NewBuffer()}
		finish := func() error {
			run := g.finish()
			ctx.report(sp, &metrics.Snapshot{metrics.TuplesStored: g.tuples})
			if run != nil {
				mu.Lock()
				resident = append(resident, run)
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
	return s.mergeStream(ctx, sp, resident, res, rc, ord)
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

// runGenerator accumulates one worker's tuples into pages of the worker's
// Umami buffer; when the budget runs out it sorts them and hands them back to
// the buffer as one run.
type runGenerator struct {
	rc    *data.RowCodec
	cmp   func(a, b []byte) int
	limit int
	buf   *core.Buffer

	cur    *pages.Page
	pgs    []*pages.Page
	spare  []*pages.Page // topK's other page list, reused trim after trim
	tups   [][]byte
	tuples int64
	seq    []int32 // 0, 1, 2, …: the rows of a batch without a selection
	sizes  []int   // the encoded sizes of the rows being added
}

// add encodes the live rows of b onto the generator's pages in place,
// encodeRows at a time, each page's share reserved as one run.
func (g *runGenerator) add(b *data.Batch) error {
	sel := b.Sel
	if sel == nil {
		g.seq = iota32(g.seq, b.Len())
		sel = g.seq
	}
	for len(sel) > 0 {
		n := min(len(sel), encodeRows)
		g.sizes = g.rc.SizeAll(b, sel[:n], g.sizes[:0])
		for i := 0; i < n; {
			if g.cur == nil || !g.cur.HasSpace(g.sizes[i]) {
				if len(g.pgs) > 0 && g.buf.Exhausted() {
					if err := g.spillRun(); err != nil {
						return err
					}
				}
				g.newPage()
			}
			at := len(g.tups)
			g.tups = slices.Grow(g.tups, n-i)[:at+n-i]
			k := g.cur.AllocRun(g.sizes[i:n], g.tups[at:])
			if k == 0 {
				return fmt.Errorf("exec: sort tuple of %d bytes exceeds page size", g.sizes[i])
			}
			g.tups = g.tups[:at+k]
			g.rc.EncodeAll(g.tups[at:], b, sel[i:i+k])
			g.tuples += int64(k)
			i += k
			if g.limit > 0 && len(g.tups) >= 2*g.limit {
				g.topK()
			}
		}
		sel = sel[n:]
	}
	return nil
}

func (g *runGenerator) newPage() {
	g.cur = g.buf.Pool().Get()
	g.pgs = append(g.pgs, g.cur)
}

// topK keeps the first limit of the 2·limit or more tuples held: it copies
// them onto pages from the buffer's pool and gives the old pages back to it
// for the next fill.
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
		g.buf.Pool().Put(p)
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
		g.buf.Pool().Discard(p)
	}
	g.pgs, g.tups, g.cur = g.pgs[:0], g.tups[:0], nil
	return err
}

// finish sorts the resident tail into a final in-memory run, or returns nil.
// The run is zero copy: its tuples stay on their pages, which the buffer
// keeps for the operator's Result until the merge has streamed them out.
func (g *runGenerator) finish() *runCursor {
	if len(g.tups) == 0 {
		return nil
	}
	g.buf.Keep(g.pgs)
	return &runCursor{tups: g.sorted()}
}

// runCursor iterates one sorted run's tuples in order: a resident run's
// tuples on their pages, or a spilled run's pages as its readback cursor
// hands them out.
type runCursor struct {
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

// mergeStream k-way merges the resident runs, whose pages res holds, and the
// spilled runs of res — its streams after its one partition. The spilled
// runs are all open at once, so they share the readback depth; as the merge
// recycles what it has passed, a run holds at most depth+1 blocks.
// The merge itself is sequential (one worker drives it; the others see
// end-of-stream immediately), which is inherent to order-preserving output.
func (s *ExtSort) mergeStream(ctx *Ctx, sp *trace.Span, runs []*runCursor, res *core.Result, rc *data.RowCodec, ord *tupleOrder) (*Stream, error) {
	var streams []int
	for st := res.Partitions; st < len(res.Spilled); st++ {
		streams = append(streams, st)
	}
	sched := core.NewPartitionScheduler(ctx.Context, ctx.Spill, ctx.Budget, max(1, core.DefaultReadDepth/max(1, len(streams))),
		[]*core.Result{res}, streams, func(n *metrics.Snapshot) { ctx.report(sp, n) })
	var spilled []*core.PartitionCursor
	for i := range streams {
		spilled = append(spilled, sched.Open(i, 0))
		runs = append(runs, &runCursor{pcur: spilled[i]})
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
				// The merge is over: recycle what a Limit left unread, and
				// end the runs' pages — every tuple emitted was copied out.
				for _, pcur := range spilled {
					pcur.Release()
				}
				spilled = nil
				h.items = nil
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

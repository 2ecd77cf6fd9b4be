package exec

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/trace"
)

// ExtSort is an external merge sort: the spilling counterpart to Sort and
// an implementation of the sorting direction the paper leaves as future
// work (§4.7 "applying adaptive materialization to other operators, such
// as sorting"). Workers generate sorted runs bounded by the memory budget;
// a run that does not fit goes through Umami, its worker's core.Buffer
// writing it as an ordered page sequence (Buffer.SpillRun). A k-way merge
// streams the ordered result, reading spilled runs back through one
// partition scheduler, a run per work item. In memory (no budget pressure)
// it degenerates to one sorted run per worker and a merge — no I/O.
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
	keyCols := indicesOf(schema, sortCols(s.Keys))
	shared := core.NewShared(ctx.coreConfig())

	var mu sync.Mutex
	var resident []*runCursor
	// Resident runs keep their backing pages until the merge has streamed
	// them out; return their budget reservation at query end.
	ctx.AddCleanup(func() {
		for _, run := range resident {
			for _, p := range run.pgs {
				ctx.Budget.Release(int64(p.Size()))
			}
		}
	})
	err = drainWorkers(ctx, "sort", in, func(int) (func(*data.Batch) error, func() error) {
		g := &runGenerator{
			sorter: s, rc: rc, keyCols: keyCols, budget: ctx.Budget,
			pool: pages.NewPool(shared.Config().PageSize, 0, ctx.Budget),
			buf:  shared.NewBuffer(),
		}
		add := func(b *data.Batch) error {
			for i, n := 0, b.Rows(); i < n; i++ {
				if err := g.add(b, b.Row(i)); err != nil {
					return err
				}
			}
			return nil
		}
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
		return add, finish
	})
	if err != nil {
		return nil, err
	}
	res, err := ctx.finalize(sp, shared)
	if err != nil {
		return nil, err
	}
	ctx.spanPhase(sp, pc)
	return s.mergeStream(ctx, sp, resident, res, rc, keyCols)
}

// runGenerator accumulates one worker's tuples into pages; when the budget
// runs out it sorts them and hands them to the worker's Umami buffer as one
// run.
type runGenerator struct {
	sorter  *ExtSort
	rc      *data.RowCodec
	keyCols []int
	budget  *pages.Budget
	pool    *pages.Pool
	buf     *core.Buffer

	cur    *pages.Page
	pgs    []*pages.Page
	refs   []tupleRef
	tuples int64
}

type tupleRef struct {
	page int32
	tup  int32
}

func (g *runGenerator) add(b *data.Batch, r int) error {
	size := g.rc.Size(b, r)
	if g.cur == nil || !g.cur.HasSpace(size) {
		if g.budget.Exhausted(g.pool.PageSize()) && len(g.pgs) > 0 {
			if err := g.spillRun(); err != nil {
				return err
			}
		}
		g.cur = g.pool.Get()
		g.pgs = append(g.pgs, g.cur)
	}
	dst, ok := g.cur.Alloc(size)
	if !ok {
		return fmt.Errorf("exec: sort tuple of %d bytes exceeds page size", size)
	}
	g.rc.Encode(dst, b, r)
	g.refs = append(g.refs, tupleRef{page: int32(len(g.pgs) - 1), tup: int32(g.cur.Tuples() - 1)})
	g.tuples++
	return nil
}

// sortRefs orders the accumulated tuple refs by the sort keys.
func (g *runGenerator) sortRefs() {
	rc, keys := g.rc, g.keyCols
	desc := g.sorter.Keys
	sort.SliceStable(g.refs, func(a, b int) bool {
		ta := g.pgs[g.refs[a].page].Tuple(int(g.refs[a].tup))
		tb := g.pgs[g.refs[b].page].Tuple(int(g.refs[b].tup))
		for i, c := range keys {
			cmp := compareTupleField(rc, ta, tb, c)
			if cmp == 0 {
				continue
			}
			if desc[i].Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
}

// spillRun sorts the accumulated run, hands it to the buffer in order and
// returns its input pages to the budget. The run's writes complete while
// the next run accumulates.
func (g *runGenerator) spillRun() error {
	g.sortRefs()
	err := g.buf.SpillRun(len(g.refs), func(i int) []byte {
		ref := g.refs[i]
		return g.pgs[ref.page].Tuple(int(ref.tup))
	})
	for _, p := range g.pgs {
		g.pool.Discard(p)
	}
	g.pgs, g.refs, g.cur = g.pgs[:0], g.refs[:0], nil
	return err
}

// finish sorts the resident tail into a final in-memory run (zero copy:
// the run keeps the backing pages plus the sorted refs), or returns nil.
func (g *runGenerator) finish() *runCursor {
	if len(g.refs) == 0 {
		return nil
	}
	g.sortRefs()
	return &runCursor{pgs: g.pgs, refs: g.refs}
}

// runCursor iterates one sorted run's tuples in order: a resident run's pages
// through its sorted refs, or a spilled run's pages as its readback cursor
// hands them out.
type runCursor struct {
	pgs  []*pages.Page
	refs []tupleRef
	pcur *core.PartitionCursor
	page *pages.Page
	i    int
}

// next returns the run's next tuple, or nil at end.
func (c *runCursor) next() ([]byte, error) {
	if c.pcur == nil {
		if c.i == len(c.refs) {
			return nil, nil
		}
		ref := c.refs[c.i]
		c.i++
		return c.pgs[ref.page].Tuple(int(ref.tup)), nil
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
func (s *ExtSort) mergeStream(ctx *Ctx, sp *trace.Span, runs []*runCursor, res *core.Result, rc *data.RowCodec, keyCols []int) (*Stream, error) {
	var spilled []*core.PartitionCursor
	if len(res.Runs) > 0 {
		sched := ctx.newPartitionScheduler(res.Runs, res.Stripes, max(1, core.DefaultReadDepth/len(res.Runs)))
		for i := range res.Runs {
			spilled = append(spilled, sched.Open(i))
			runs = append(runs, &runCursor{pcur: spilled[i]})
		}
	}
	h := &mergeHeap{rc: rc, keyCols: keyCols, keys: s.Keys}
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
				// counters and recycle what a Limit left unread.
				for _, pcur := range spilled {
					ctx.reportCursor(sp, pcur)
					pcur.Release()
				}
				spilled = nil
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
	items   []mergeItem
	rc      *data.RowCodec
	keyCols []int
	keys    []SortKey
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	for k, c := range h.keyCols {
		cmp := compareTupleField(h.rc, h.items[i].tuple, h.items[j].tuple, c)
		if cmp == 0 {
			continue
		}
		if h.keys[k].Desc {
			return cmp > 0
		}
		return cmp < 0
	}
	return false
}
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x interface{}) { h.items = append(h.items, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

package exec

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/trace"
	"github.com/spilly-db/spilly/internal/uring"
)

// ExtSort is an external merge sort: the spilling counterpart to Sort and
// an implementation of the sorting direction the paper leaves as future
// work (§4.7 "applying adaptive materialization to other operators, such
// as sorting"). Workers generate sorted runs bounded by the memory budget,
// spilling full runs to the NVMe array as sequences of pages; a final
// k-way merge streams the ordered result. In memory (no budget pressure)
// it degenerates to one sorted run per worker and a merge — no I/O.
type ExtSort struct {
	Child Node
	Keys  []SortKey
	Limit int // 0 = unlimited
}

// Schema implements Node.
func (s *ExtSort) Schema() *data.Schema { return s.Child.Schema() }

// sortRun is one sorted run: either resident (pages plus sorted tuple
// refs) or spilled (an ordered page sequence on the array).
type sortRun struct {
	pgs   []*pages.Page // in-memory run backing pages
	refs  []tupleRef    // in-memory run tuples in sorted order
	slots []core.SpilledSlot
}

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

	pageSize := ctx.pageSize()

	var mu sync.Mutex
	var runs []*sortRun

	err = drainWorkers(ctx, "sort", in, func(int) (func(*data.Batch) error, func() error) {
		g := &runGenerator{
			sorter: s, ctx: ctx, rc: rc, keyCols: keyCols,
			pageSize: pageSize,
			pool:     pages.NewPool(pageSize, 0, ctx.Budget),
			sp:       sp,
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
			rs := g.finish()
			ctx.report(sp, &metrics.Snapshot{metrics.TuplesStored: g.tuples})
			mu.Lock()
			runs = append(runs, rs...)
			mu.Unlock()
			return nil
		}
		return add, finish
	})
	if err != nil {
		return nil, err
	}
	// In-memory runs keep their backing pages until the merge has streamed
	// them out; return their budget reservation at query end.
	ctx.AddCleanup(func() {
		for _, run := range runs {
			for _, p := range run.pgs {
				ctx.Budget.Release(int64(p.Size()))
			}
		}
	})
	ctx.spanPhase(sp, pc)
	return s.mergeStream(ctx, sp, runs, rc, keyCols, pageSize)
}

// runGenerator accumulates tuples into pages; when the budget runs out it
// sorts the accumulated run and spills it in order.
type runGenerator struct {
	sorter   *ExtSort
	ctx      *Ctx
	rc       *data.RowCodec
	keyCols  []int
	pageSize int
	pool     *pages.Pool

	cur    *pages.Page
	pgs    []*pages.Page
	refs   []tupleRef
	runs   []*sortRun
	ring   *uring.Ring
	sp     *trace.Span
	tuples int64
}

type tupleRef struct {
	page int32
	tup  int32
}

func (g *runGenerator) add(b *data.Batch, r int) error {
	size := g.rc.Size(b, r)
	if g.cur == nil || !g.cur.HasSpace(size) {
		if g.ctx.Budget.Exhausted(g.pageSize) && len(g.pgs) > 0 {
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

// spillRun sorts the current run and writes it out as an ordered page
// sequence.
func (g *runGenerator) spillRun() error {
	if g.ctx.Spill == nil {
		core.PanicOOM()
	}
	g.sortRefs()
	if g.ring == nil {
		g.ring = uring.New(g.ctx.Spill.Array)
		g.ring.SetLease(g.ctx.Spill.Lease)
		g.ring.Bind(g.ctx.Spill.Sched, uring.ClassSpillWrite, g.ctx.Spill.Query)
	}
	run := &sortRun{}
	// Write buffers are plain pages owned by the ring until completion;
	// the bounded in-flight window caps their memory.
	out := pages.New(g.pageSize)
	flush := func(p *pages.Page) error {
		loc, err := g.ring.QueueWrite(p.Seal(), uint64(len(run.slots)))
		if err != nil {
			return err
		}
		run.slots = append(run.slots, core.SpilledSlot{Loc: loc, Off: 0, Len: uint32(p.Size())})
		if g.ring.Outstanding()+g.ring.Pending() > 16 {
			g.ring.Submit()
			g.ring.Poll(nil, true)
		}
		return nil
	}
	for _, ref := range g.refs {
		t := g.pgs[ref.page].Tuple(int(ref.tup))
		if !out.HasSpace(len(t)) {
			if err := flush(out); err != nil {
				return err
			}
			out = pages.New(g.pageSize)
		}
		out.Append(t)
	}
	if out.Tuples() > 0 {
		if err := flush(out); err != nil {
			return err
		}
	}
	for _, c := range g.ring.WaitAll(nil) {
		if c.Err != nil {
			return c.Err
		}
	}
	var bytes int64
	for _, s := range run.slots {
		bytes += int64(s.Len)
	}
	g.ctx.report(g.sp, &metrics.Snapshot{metrics.SpilledBytes: bytes, metrics.WrittenBytes: bytes})
	g.runs = append(g.runs, run)
	// Release the run's input memory back to the budget.
	for _, p := range g.pgs {
		g.pool.Discard(p)
	}
	g.pgs, g.refs, g.cur = nil, nil, nil
	return nil
}

// finish sorts the resident tail into a final in-memory run (zero copy:
// the run keeps the backing pages plus the sorted refs).
func (g *runGenerator) finish() []*sortRun {
	if len(g.refs) > 0 {
		g.sortRefs()
		g.runs = append(g.runs, &sortRun{pgs: g.pgs, refs: g.refs})
		g.pgs, g.refs, g.cur = nil, nil, nil
	}
	return g.runs
}

// runCursor iterates one sorted run's tuples in order, prefetching spilled
// pages sequentially.
type runCursor struct {
	run      *sortRun
	arr      *nvmesim.Array
	pageSize int
	ctx      *Ctx
	sp       *trace.Span

	pageIdx int
	tupIdx  int
	cur     *pages.Page
	curBuf  []byte // recycler-backed buffer the current page aliases

	ring    *uring.Ring
	disp    uring.Dispatcher // shared I/O scheduler (nil = private ring)
	query   uint64
	pending map[uint64]int
	bufs    map[int][]byte
	nextReq int
}

func newRunCursor(ctx *Ctx, sp *trace.Span, run *sortRun, arr *nvmesim.Array, pageSize int) *runCursor {
	return &runCursor{run: run, arr: arr, pageSize: pageSize, ctx: ctx, sp: sp,
		pending: map[uint64]int{}, bufs: map[int][]byte{}}
}

// next returns the run's next tuple, or nil at end.
func (c *runCursor) next() ([]byte, error) {
	// In-memory runs iterate their sorted refs directly.
	if c.run.pgs != nil {
		if c.tupIdx >= len(c.run.refs) {
			return nil, nil
		}
		ref := c.run.refs[c.tupIdx]
		c.tupIdx++
		return c.run.pgs[ref.page].Tuple(int(ref.tup)), nil
	}
	for {
		if c.cur != nil && c.tupIdx < c.cur.Tuples() {
			t := c.cur.Tuple(c.tupIdx)
			c.tupIdx++
			return t, nil
		}
		c.cur = nil
		c.tupIdx = 0
		if c.pageIdx >= len(c.run.slots) {
			// Run exhausted; the last page's tuples are all copied out
			// (the merge appends through an arena), so its buffer can go
			// back to the recycler.
			if c.curBuf != nil {
				pages.PutBuf(c.curBuf)
				c.curBuf = nil
			}
			return nil, nil
		}
		if err := c.loadSpilled(); err != nil {
			return nil, err
		}
	}
}

// loadSpilled reads the next spilled page (with sequential prefetch).
func (c *runCursor) loadSpilled() error {
	if c.ring == nil {
		c.ring = uring.New(c.arr)
		// Merge reads block the (single) merge worker, so they are demand
		// class under the shared scheduler.
		c.ring.Bind(c.disp, uring.ClassDemand, c.query)
	}
	// Prefetch ahead.
	for c.nextReq < len(c.run.slots) && c.nextReq < c.pageIdx+4 {
		slot := c.run.slots[c.nextReq]
		buf := pages.GetBuf(int(slot.Loc.Size()))
		c.ring.QueueRead(slot.Loc, buf, uint64(c.nextReq))
		c.pending[uint64(c.nextReq)] = c.nextReq
		c.bufs[c.nextReq] = buf
		c.nextReq++
	}
	c.ring.Submit()
	var stall time.Duration // merge-worker wall time blocked on the reads below
	for {
		if buf, ok := c.bufs[c.pageIdx]; ok {
			if _, stillPending := c.pending[uint64(c.pageIdx)]; !stillPending {
				p, err := pages.Load(buf[:c.pageSize])
				if err != nil {
					return err
				}
				delete(c.bufs, c.pageIdx)
				// The previous page was fully merged (every tuple copied
				// through the merge arena); recycle its buffer.
				if c.curBuf != nil {
					pages.PutBuf(c.curBuf)
				}
				c.curBuf = buf
				c.ctx.report(c.sp, &metrics.Snapshot{
					metrics.SpillReadBytes:  int64(c.run.slots[c.pageIdx].Len),
					metrics.SpillStallNanos: int64(stall),
				})
				c.cur = p
				c.pageIdx++
				return nil
			}
		}
		blocked := time.Now()
		comps := c.ring.Poll(nil, true)
		stall += time.Since(blocked)
		for _, comp := range comps {
			if comp.Err != nil {
				// The merge aborts on a failed read; drop reads the shared
				// scheduler never issued so they do not linger in its queues.
				c.ring.CancelDeferred()
				return comp.Err
			}
			delete(c.pending, comp.UserData)
		}
	}
}

// mergeStream k-way merges the runs. The merge itself is sequential (one
// worker drives it; the others see end-of-stream immediately), which is
// inherent to order-preserving output.
func (s *ExtSort) mergeStream(ctx *Ctx, sp *trace.Span, runs []*sortRun, rc *data.RowCodec, keyCols []int, pageSize int) (*Stream, error) {
	var arr *nvmesim.Array
	if ctx.Spill != nil {
		arr = ctx.Spill.Array
	}
	h := &mergeHeap{rc: rc, keyCols: keyCols, keys: s.Keys}
	for _, run := range runs {
		cur := newRunCursor(ctx, sp, run, arr, pageSize)
		if ctx.Spill != nil {
			cur.disp, cur.query = ctx.Spill.Sched, ctx.Spill.Query
		}
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
	schema := s.Child.Schema()
	return ctx.traceStream(&Stream{
		schema: schema,
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
			for b.Len() < 1024 && h.Len() > 0 {
				if s.Limit > 0 && emitted >= s.Limit {
					break
				}
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

package colstore

import (
	"fmt"
	"sync/atomic"

	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/uring"
)

// DefaultScanDepth is the number of row groups each external-scan reader
// keeps in flight unless ScanOpts.Depth says otherwise. A column's
// consecutive groups sit on consecutive devices (WriteTable), so a window of
// this many groups per reader, times the worker count, is how many SSDs a
// one-column scan keeps busy; wider projections reach every device sooner
// (§5.2 "aiming to maintain a full I/O queue" across morsel boundaries).
const DefaultScanDepth = 4

// diskReader is a per-worker external scan (§5.2): it pulls row-group
// morsels from the shared cursor, schedules asynchronous reads for the
// projected column chunks of several groups ahead and decodes whichever
// group completes first.
//
// Under the shared I/O scheduler the lookahead reads are prefetch class:
// they fill idle device headroom but yield to demand reads and spill
// writes. When the worker is about to block, the reads of the oldest
// in-flight group are promoted to demand — the scan is no longer ahead of
// the consumer, so its next group is on the critical path.
//
// Buffer ownership: the reader owns its read buffers and the columns it
// decodes into for its whole life, so a group in steady state allocates
// nothing (string chunks excepted: their bytes become one new string each).
// Next lends the decoded columns to the batch (Batch.Borrow); they are valid
// until the same reader's next Next, which decodes over them. Under a buffer
// cache a read buffer changes owner at Cache.Put, so there the reader makes
// a new one per read and reuses none.
type diskReader struct {
	t      *DiskTable
	proj   []int
	cursor *atomic.Int64
	ring   *uring.Ring
	clock  nvmesim.Clock

	slots    []inflightGroup  // the lookahead window, ScanOpts.Depth wide
	inflight []*inflightGroup // the slots in use, oldest first
	cols     []data.Column    // decode targets, one per projected column
	dec      decoder
	exhaust  bool
	scratch  []uring.Completion
	stallNs  int64
	stalls   int64
	err      error
	closed   bool
}

// inflightGroup is one slot of the window. A chunk read's user data is its
// slot index and projection index (see userData).
type inflightGroup struct {
	slot    int
	live    bool // holds a group not yet delivered
	g       int
	rows    int
	bufs    [][]byte // the chunk to decode, per projected column
	own     [][]byte // the slot's read buffers, used when the store has no cache
	waiting []bool   // read still outstanding
	missing int
}

func userData(slot, i int) uint64 { return uint64(slot)<<32 | uint64(i) }

// NewReader implements Table, with the default scan options.
func (t *DiskTable) NewReader(proj []int, cursor *atomic.Int64) Reader {
	return t.NewReaderOpts(proj, cursor, ScanOpts{})
}

// NewReaderOpts implements OptsTable: opts.Depth overrides the default
// scan depth, opts.Query keys the reads in the shared I/O scheduler.
func (t *DiskTable) NewReaderOpts(proj []int, cursor *atomic.Int64, opts ScanOpts) Reader {
	depth := opts.Depth
	if depth <= 0 {
		depth = DefaultScanDepth
	}
	ring := uring.New(t.store.arr)
	ring.Bind(t.store.sched, uring.ClassPrefetch, opts.Query)
	r := &diskReader{
		t:        t,
		proj:     proj,
		cursor:   cursor,
		ring:     ring,
		clock:    t.store.arr.Clock(),
		slots:    make([]inflightGroup, depth),
		inflight: make([]*inflightGroup, 0, depth),
		cols:     make([]data.Column, len(proj)),
	}
	for i := range r.slots {
		r.slots[i] = inflightGroup{
			slot:    i,
			bufs:    make([][]byte, len(proj)),
			own:     make([][]byte, len(proj)),
			waiting: make([]bool, len(proj)),
		}
	}
	for i, col := range proj {
		r.cols[i].Type = t.schema.Cols[col].Type
	}
	return r
}

func (r *diskReader) Next(b *data.Batch) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.closed {
		return 0, nil
	}
	for {
		r.fill()
		// Deliver any fully-read group.
		for i, g := range r.inflight {
			if g.missing == 0 {
				r.inflight = append(r.inflight[:i], r.inflight[i+1:]...)
				g.live = false
				if err := r.decode(b, g); err != nil {
					return 0, r.fail(err)
				}
				return g.rows, nil
			}
		}
		if len(r.inflight) == 0 {
			return 0, nil // table exhausted
		}
		r.ring.Submit()
		// No group is complete: the worker is about to stall on I/O. The
		// oldest group's reads are on the critical path now — promote them
		// to demand class — and charge the blocked time to the scan.
		oldest := r.inflight[0]
		for i, w := range oldest.waiting {
			if w {
				r.ring.Promote(userData(oldest.slot, i))
			}
		}
		t0 := r.clock.Now()
		r.scratch = r.ring.Poll(r.scratch[:0], true)
		r.stallNs += r.clock.Now().Sub(t0).Nanoseconds()
		r.stalls++
		for _, c := range r.scratch {
			g, i := &r.slots[c.UserData>>32], int(uint32(c.UserData))
			g.waiting[i] = false
			if c.Err != nil {
				return 0, r.fail(fmt.Errorf("colstore: reading %s: %w", r.t.name, c.Err))
			}
			if cache := r.t.store.cache; cache != nil {
				ref := r.t.groups[g.g].chunks[r.proj[i]]
				cache.Put(ref.Loc, g.bufs[i][:ref.Len])
			}
			g.missing--
		}
	}
}

// fail makes err the reader's sticky error and quiesces its I/O: deferred
// reads are cancelled, dispatched ones drained, and buffer references
// dropped. Every later Next returns the same error.
func (r *diskReader) fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	r.drain()
	return r.err
}

// Close quiesces the reader's outstanding I/O (draining dispatched reads,
// cancelling deferred ones) and releases its buffer references. Idempotent;
// consumers call it when abandoning a scan mid-stream. A later Next returns
// the sticky error if one is set, end-of-table otherwise.
func (r *diskReader) Close() {
	r.closed = true
	r.drain()
}

func (r *diskReader) drain() {
	// Deferred reads will never dispatch for an abandoned reader — drop
	// them first so WaitAll terminates and the shared scheduler's queues
	// do not hold this scan's buffers forever.
	r.ring.CancelDeferred()
	r.ring.WaitAll(r.scratch[:0])
	// Cancellation may have cut the drain short, leaving reads in flight
	// into the buffers: leak them all to the GC.
	r.scratch, r.slots, r.inflight = nil, nil, nil
	r.exhaust = true
}

// StallNanos returns the cumulative wall time this reader's worker spent
// blocked waiting for group reads.
func (r *diskReader) StallNanos() int64 { return r.stallNs }

// Stalls returns how many times the worker blocked waiting for a group
// read (each block promotes the oldest group's reads to demand class);
// StallNanos/Stalls is the mean demand wait per block — how long each
// promoted, latency-critical read kept its worker waiting.
func (r *diskReader) Stalls() int64 { return r.stalls }

// fill tops up the in-flight group window, serving chunks from the buffer
// cache when possible.
func (r *diskReader) fill() {
	for !r.exhaust && len(r.inflight) < len(r.slots) {
		g := int(r.cursor.Add(1) - 1)
		if g >= len(r.t.groups) {
			r.exhaust = true
			return
		}
		ig := r.freeSlot()
		dg := &r.t.groups[g]
		ig.live, ig.g, ig.rows = true, g, dg.rows
		for i, col := range r.proj {
			ref := dg.chunks[col]
			if cache := r.t.store.cache; cache != nil {
				if buf, ok := cache.Get(ref.Loc); ok {
					ig.bufs[i] = buf
					continue
				}
				ig.bufs[i] = make([]byte, ref.Loc.Size()) // the cache's once read
			} else {
				if ig.own[i] == nil {
					ig.own[i] = make([]byte, r.t.maxChunk[col])
				}
				ig.bufs[i] = ig.own[i][:ref.Loc.Size()]
			}
			r.ring.QueueRead(ref.Loc, ig.bufs[i], userData(ig.slot, i))
			ig.waiting[i] = true
			ig.missing++
		}
		r.inflight = append(r.inflight, ig)
	}
}

// freeSlot returns a window slot no in-flight group holds.
func (r *diskReader) freeSlot() *inflightGroup {
	for i := range r.slots {
		if !r.slots[i].live {
			return &r.slots[i]
		}
	}
	panic("colstore: no free slot in a window that is not full")
}

// decode fills the reader's columns from g's chunks and lends them to b.
func (r *diskReader) decode(b *data.Batch, g *inflightGroup) error {
	b.Reset()
	dg := &r.t.groups[g.g]
	for i, col := range r.proj {
		c := &r.cols[i]
		c.I, c.F, c.S = c.I[:0], c.F[:0], c.S[:0]
		if _, err := r.dec.decode(c, g.bufs[i][:dg.chunks[col].Len]); err != nil {
			return fmt.Errorf("colstore: decoding %s group %d col %d: %w", r.t.name, g.g, col, err)
		}
		out := &b.Cols[i]
		var n int
		switch c.Type {
		case data.Float64:
			out.F, n = c.F, len(c.F)
		case data.String:
			out.S, n = c.S, len(c.S)
		default:
			out.I, n = c.I, len(c.I)
		}
		if n != g.rows {
			return fmt.Errorf("colstore: %s group %d col %d has %d %v values, want %d", r.t.name, g.g, col, n, c.Type, g.rows)
		}
	}
	b.SetLen(g.rows)
	b.Borrow()
	return nil
}

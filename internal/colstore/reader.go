package colstore

import (
	"fmt"
	"sync/atomic"

	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/uring"
)

// DefaultScanDepth is the number of row groups each external-scan reader
// keeps in flight unless ScanOpts.Depth says otherwise. With one reader per
// worker, the per-reader lookahead times the worker count keeps the array's
// I/O queues full across morsel boundaries (§5.2).
const DefaultScanDepth = 4

// diskReader is a per-worker external scan (§5.2): it pulls row-group
// morsels from the shared cursor, schedules asynchronous reads for the
// projected column chunks of several groups ahead — "aiming to maintain a
// full I/O queue" across morsel boundaries — and decodes whichever group
// completes first.
//
// Under the shared I/O scheduler the lookahead reads are prefetch class:
// they fill idle device headroom but yield to demand reads and spill
// writes. When the worker is about to block, the reads of the oldest
// in-flight group are promoted to demand — the scan is no longer ahead of
// the consumer, so its next group is on the critical path.
type diskReader struct {
	t      *DiskTable
	proj   []int
	cursor *atomic.Int64
	ring   *uring.Ring
	clock  nvmesim.Clock

	prefetch int // groups to keep in flight
	inflight []*inflightGroup
	pending  map[uint64]*chunkRead
	nextUD   uint64
	exhaust  bool
	scratch  []uring.Completion
	stallNs  int64
	stalls   int64
	err      error
	closed   bool
}

type inflightGroup struct {
	g       int
	rows    int
	bufs    [][]byte // one per projected column, in proj order
	missing int
}

type chunkRead struct {
	grp *inflightGroup
	i   int // index into proj
}

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
	return &diskReader{
		t:        t,
		proj:     proj,
		cursor:   cursor,
		ring:     ring,
		clock:    t.store.arr.Clock(),
		prefetch: depth,
		pending:  map[uint64]*chunkRead{},
	}
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
		for ud, cr := range r.pending {
			if cr.grp == oldest {
				r.ring.Promote(ud)
			}
		}
		t0 := r.clock.Now()
		r.scratch = r.ring.Poll(r.scratch[:0], true)
		r.stallNs += r.clock.Now().Sub(t0).Nanoseconds()
		r.stalls++
		for _, c := range r.scratch {
			cr, ok := r.pending[c.UserData]
			if !ok {
				continue
			}
			delete(r.pending, c.UserData)
			if c.Err != nil {
				return 0, r.fail(fmt.Errorf("colstore: reading %s: %w", r.t.name, c.Err))
			}
			if cache := r.t.store.cache; cache != nil {
				ref := r.t.groups[cr.grp.g].chunks[r.proj[cr.i]]
				cache.Put(ref.Loc, cr.grp.bufs[cr.i][:ref.Len])
			}
			cr.grp.missing--
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
	if r.ring.Outstanding() > 0 {
		// Cancellation cut the drain short; leak the buffers to the GC.
		r.scratch = nil
	}
	r.pending = map[uint64]*chunkRead{}
	r.inflight = nil
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
	for !r.exhaust && len(r.inflight) < r.prefetch {
		g := int(r.cursor.Add(1) - 1)
		if g >= len(r.t.groups) {
			r.exhaust = true
			return
		}
		dg := &r.t.groups[g]
		ig := &inflightGroup{g: g, rows: dg.rows, bufs: make([][]byte, len(r.proj))}
		for i, col := range r.proj {
			ref := dg.chunks[col]
			if cache := r.t.store.cache; cache != nil {
				if buf, ok := cache.Get(ref.Loc); ok {
					ig.bufs[i] = buf
					continue
				}
			}
			buf := make([]byte, ref.Loc.Size())
			ig.bufs[i] = buf
			r.nextUD++
			r.ring.QueueRead(ref.Loc, buf, r.nextUD)
			r.pending[r.nextUD] = &chunkRead{grp: ig, i: i}
			ig.missing++
		}
		r.inflight = append(r.inflight, ig)
	}
}

func (r *diskReader) decode(b *data.Batch, g *inflightGroup) error {
	b.Reset()
	dg := &r.t.groups[g.g]
	for i, col := range r.proj {
		ref := dg.chunks[col]
		n, err := DecodeChunk(&b.Cols[i], g.bufs[i][:ref.Len])
		if err != nil {
			return fmt.Errorf("colstore: decoding %s group %d col %d: %w", r.t.name, g.g, col, err)
		}
		if n != g.rows {
			return fmt.Errorf("colstore: %s group %d col %d has %d values, want %d", r.t.name, g.g, col, n, g.rows)
		}
	}
	b.SetLen(g.rows)
	return nil
}

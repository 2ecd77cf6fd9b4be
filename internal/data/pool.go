package data

import (
	"sync"
	"sync/atomic"
)

// batchShrinkCap bounds the per-column capacity a pooled batch may retain.
// Operators occasionally produce one oversized batch (a skewed partition, a
// large sort run); without a cap that batch's backing arrays — and, for
// string columns, every string header they still reference — would live as
// long as the pool. Columns grown past the cap are dropped on Put and
// reallocated lazily on the next fill.
const batchShrinkCap = 8192

// BatchPool recycles batches of one schema for one query. Operators lease a
// batch with Get and return it with Put (or Batch.Release); every Get that
// is matched by a Put runs the hot path without allocating. The pool is a
// plain free list that dies with its query, batches and all: unreturned
// batches are not leaked — they fall to the garbage collector — and a
// finished query's batches (and the arena chunks their strings point into)
// are garbage at once, not kept alive through the next collection the way a
// sync.Pool keeps what it holds.
//
// Ownership rule: the leaseholder may fill, reset, and read the batch, but
// must not retain any column slice past Put. Strings appended to a pooled
// batch may outlive it (string headers are copied out by AppendRowFrom);
// the pool never writes to string backing arrays for exactly that reason —
// see shrink.
type BatchPool struct {
	schema *Schema
	mu     sync.Mutex
	free   []*Batch
	gets   atomic.Int64
	puts   atomic.Int64
}

// NewBatchPool returns a pool producing batches of the given schema.
func NewBatchPool(schema *Schema) *BatchPool {
	return &BatchPool{schema: schema}
}

// Schema returns the schema of the pooled batches.
func (bp *BatchPool) Schema() *Schema { return bp.schema }

// Get leases a reset batch from the pool.
func (bp *BatchPool) Get() *Batch {
	bp.gets.Add(1)
	var b *Batch
	bp.mu.Lock()
	if n := len(bp.free); n > 0 {
		b = bp.free[n-1]
		bp.free[n-1] = nil
		bp.free = bp.free[:n-1]
	}
	bp.mu.Unlock()
	if b == nil {
		b = NewBatch(bp.schema, 0)
	}
	b.Reset()
	b.pool = bp
	return b
}

// Put returns a batch to the pool. Nil is a no-op; double-Put is the
// caller's bug (the same batch would be leased twice).
func (bp *BatchPool) Put(b *Batch) {
	if b == nil {
		return
	}
	bp.puts.Add(1)
	b.pool = nil
	b.shrink()
	b.Reset()
	bp.mu.Lock()
	bp.free = append(bp.free, b)
	bp.mu.Unlock()
}

// Counters returns the cumulative Get and Put call counts. A balanced
// pipeline returns every leased batch, so after a successful query
// gets == puts (the leak test asserts exactly that).
func (bp *BatchPool) Counters() (gets, puts int64) {
	return bp.gets.Load(), bp.puts.Load()
}

// Release returns the batch to the pool it was leased from; on batches that
// did not come from a pool it is a no-op, so operators can release
// unconditionally.
func (b *Batch) Release() {
	if b == nil || b.pool == nil {
		return
	}
	p := b.pool
	b.pool = nil
	p.Put(b)
}

// shrink applies the retention policy before a batch re-enters the pool:
// any column (or selection vector) grown past batchShrinkCap is dropped so
// retained bytes stabilize at schema-width × batchShrinkCap regardless of
// the largest batch ever pooled.
//
// Deliberately NOT done here: zeroing retained string headers. The small
// retained string arrays pin at most batchShrinkCap stale headers until the
// next fill overwrites them. Columns that alias table storage (Borrow) are
// never retained at all: the Reset that follows drops them.
func (b *Batch) shrink() {
	for i := range b.Cols {
		c := &b.Cols[i]
		if cap(c.I) > batchShrinkCap {
			c.I = nil
		}
		if cap(c.F) > batchShrinkCap {
			c.F = nil
		}
		if cap(c.S) > batchShrinkCap {
			c.S = nil
		}
		c.Null = nil
	}
	if cap(b.Sel) > batchShrinkCap {
		b.Sel = nil
	}
}

package pages

import (
	"fmt"
	"sync/atomic"
)

// Budget tracks page memory allocated across all worker threads of an
// operator (or of the whole engine). Umami consults the budget on every page
// allocation: once it is exhausted, threads switch to spilling full pages
// instead of allocating new ones (paper §4.2, "Deciding whether to spill").
//
// All methods are safe for concurrent use.
type Budget struct {
	limit atomic.Int64 // bytes; 0 means unlimited
	used  atomic.Int64
	peak  atomic.Int64 // high-water mark of used
}

// NewBudget returns a budget of limit bytes. limit <= 0 means unlimited.
func NewBudget(limit int64) *Budget {
	b := &Budget{}
	b.Resize(limit)
	return b
}

// Resize changes the limit in place (limit <= 0 means unlimited). Bytes
// already reserved stay accounted, so whoever reserved them under the old
// limit releases them into the same budget: a query keeps one Budget for its
// whole life and admission resizes it to the grant. A nil budget stays
// unlimited.
func (b *Budget) Resize(limit int64) {
	if b == nil {
		return
	}
	if limit < 0 {
		limit = 0
	}
	b.limit.Store(limit)
}

// Limit returns the current limit in bytes (0 = unlimited, also on a nil
// budget).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit.Load()
}

// Used returns the bytes currently accounted.
func (b *Budget) Used() int64 { return b.used.Load() }

// Peak returns the most bytes that were ever accounted at once — how far a
// query really went, whatever its limit said. Zero on a nil budget.
func (b *Budget) Peak() int64 {
	if b == nil {
		return 0
	}
	return b.peak.Load()
}

// notePeak raises the high-water mark to used.
func (b *Budget) notePeak(used int64) {
	for {
		cur := b.peak.Load()
		if used <= cur || b.peak.CompareAndSwap(cur, used) {
			return
		}
	}
}

// TryReserve reserves n bytes if the budget allows it.
func (b *Budget) TryReserve(n int64) bool {
	if b == nil {
		return true
	}
	for {
		cur := b.used.Load()
		if limit := b.limit.Load(); limit > 0 && cur+n > limit {
			return false
		}
		if b.used.CompareAndSwap(cur, cur+n) {
			b.notePeak(cur + n)
			return true
		}
	}
}

// Reserve reserves n bytes unconditionally (used for the bounded page pools
// themselves, which must exist for spilling to make progress).
func (b *Budget) Reserve(n int64) {
	if b != nil {
		b.notePeak(b.used.Add(n))
	}
}

// Release returns n bytes to the budget.
func (b *Budget) Release(n int64) {
	if b == nil {
		return
	}
	if b.used.Add(-n) < 0 {
		panic(fmt.Sprintf("pages: budget released below zero (by %d)", n))
	}
}

// Exhausted reports whether the budget has no room for one more page of the
// given size. This is the per-allocation spill trigger.
func (b *Budget) Exhausted(pageSize int) bool {
	limit := b.Limit()
	return limit > 0 && b.used.Load()+int64(pageSize) > limit
}

// Pool is a thread-local free list of pages. Spilling buffers draw clean
// pages from the pool while full ones are written out asynchronously
// (paper Listing 2); the pool's fixed size bounds per-thread memory during
// spilling regardless of input size.
//
// Pool is not safe for concurrent use.
type Pool struct {
	pageSize int
	fixed    int // fixed tuple size for pages from this pool; 0 = slotted
	free     []*Page
	budget   *Budget
	created  int
	closed   int
}

// NewPool returns a pool creating pages of pageSize bytes. If fixedTupleSize
// is nonzero all pages use the fixed layout. The budget, if non-nil, is
// charged for every page the pool creates and credited when pages are
// discarded via Discard.
func NewPool(pageSize, fixedTupleSize int, budget *Budget) *Pool {
	return &Pool{pageSize: pageSize, fixed: fixedTupleSize, budget: budget}
}

// PageSize returns the size of pages this pool manages.
func (p *Pool) PageSize() int { return p.pageSize }

// Get returns a clean page, reusing a freed one when available and else a
// buffer from the recycler before it allocates. It charges the budget for
// newly created pages but never fails: budget pressure is handled by the
// caller deciding to spill, not by allocation failure.
func (p *Pool) Get() *Page {
	if n := len(p.free); n > 0 {
		pg := p.free[n-1]
		p.free = p.free[:n-1]
		pg.Reset()
		return pg
	}
	p.budget.Reserve(int64(p.pageSize))
	p.created++
	return newOn(GetBuf(p.pageSize), p.fixed)
}

// Put returns a page to the free list for reuse. The budget is unaffected:
// the memory is still held.
func (p *Pool) Put(pg *Page) {
	if pg.Size() != p.pageSize {
		panic("pages: returning foreign-size page to pool")
	}
	p.free = append(p.free, pg)
}

// Discard drops a page whose tuples are dead, releasing its budget share and
// recycling its buffer.
func (p *Pool) Discard(pg *Page) {
	p.budget.Release(int64(pg.Size()))
	pg.Recycle()
}

// Close recycles every page on the free list and releases its budget share.
// Buffers call it after their last page retires so a finished operator's
// clean pages stop counting against the query budget and go to the next
// operator — without Close the free list would hold its reservation until
// the pool itself is collected. The pool stays usable after Close (Get
// simply takes from the recycler again).
func (p *Pool) Close() {
	for _, pg := range p.free {
		p.budget.Release(int64(pg.Size()))
		pg.Recycle()
	}
	p.closed += len(p.free)
	p.free = nil
}

// FreePages returns the number of pages currently on the free list.
func (p *Pool) FreePages() int { return len(p.free) }

// Created returns the number of pages this pool has ever allocated.
func (p *Pool) Created() int { return p.created }

// Closed returns the number of clean pages retired by Close — pages whose
// budget reservation was returned because no tuple referenced them.
func (p *Pool) Closed() int { return p.closed }

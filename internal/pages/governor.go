package pages

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrAdmissionTimeout is returned by Governor.Admit when a query waited out
// its admission timeout without a grant becoming available.
var ErrAdmissionTimeout = errors.New("admission queue timeout")

// Governor owns an engine-wide memory budget and hands each admitted query a
// grant carved from it. A single query on an idle engine receives the full
// remaining budget — preserving single-query behavior exactly — while
// concurrent queries share: each admission takes half of what remains, never
// less than the configured floor. Queries that cannot be admitted (less than
// a floor's worth of memory is free) queue FIFO until running queries
// release their grants; Admit respects both a timeout and the caller's
// context, so a canceled query leaves the queue immediately with its slot
// released.
//
// The Governor only tracks grants; per-query enforcement stays with the
// per-query Budget each grant is used to size.
type Governor struct {
	total int64
	floor int64

	mu      sync.Mutex
	granted int64
	active  int
	waiters []*govWaiter

	admitted  atomic.Int64
	timeouts  atomic.Int64
	waitNanos atomic.Int64
}

// govWaiter is one queued admission request. The grant channel is buffered
// so a releaser can hand off without blocking; an abandoning waiter drains
// it and returns any grant it finds.
type govWaiter struct {
	ch chan *Grant
}

// Grant is one query's share of the governed budget. Release returns it;
// Release is idempotent and safe to call from teardown paths that may run
// more than once.
type Grant struct {
	g        *Governor
	bytes    int64
	released atomic.Bool
}

// Bytes returns the grant's size.
func (g *Grant) Bytes() int64 {
	if g == nil {
		return 0
	}
	return g.bytes
}

// Release returns the grant to the governor and wakes queued admissions that
// now fit. Idempotent.
func (g *Grant) Release() {
	if g == nil || g.released.Swap(true) {
		return
	}
	g.g.release(g.bytes)
}

// NewGovernor returns a governor over total bytes of memory with the given
// per-query admission floor. The floor is clamped to [1, total].
func NewGovernor(total, floor int64) *Governor {
	if floor < 1 {
		floor = 1
	}
	if floor > total {
		floor = total
	}
	return &Governor{total: total, floor: floor}
}

// Total returns the governed budget.
func (g *Governor) Total() int64 { return g.total }

// Floor returns the minimum admission grant.
func (g *Governor) Floor() int64 { return g.floor }

// Admit blocks until the query receives a memory grant, the timeout elapses
// (ErrAdmissionTimeout), or ctx is done (ctx.Err()). timeout <= 0 means no
// timeout. The returned wait is how long admission took, for stats.
func (g *Governor) Admit(ctx context.Context, timeout time.Duration) (*Grant, time.Duration, error) {
	start := time.Now()
	g.mu.Lock()
	if len(g.waiters) == 0 {
		if grant := g.grantLocked(g.active > 0); grant != nil {
			g.mu.Unlock()
			g.admitted.Add(1)
			return grant, 0, nil
		}
	}
	w := &govWaiter{ch: make(chan *Grant, 1)}
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case grant := <-w.ch:
		wait := time.Since(start)
		g.admitted.Add(1)
		g.waitNanos.Add(int64(wait))
		return grant, wait, nil
	case <-timer:
		g.abandon(w)
		g.timeouts.Add(1)
		return nil, time.Since(start), ErrAdmissionTimeout
	case <-done:
		g.abandon(w)
		return nil, time.Since(start), ctx.Err()
	}
}

// grantLocked computes and books an immediate grant, or returns nil when
// less than a floor's worth of budget is free. When share is true the grant
// takes half of what is free (never below the floor) so concurrent queries
// converge toward an even split instead of the first claiming everything; a
// lone query gets the full remainder. Caller holds g.mu.
func (g *Governor) grantLocked(share bool) *Grant {
	avail := g.total - g.granted
	if avail < g.floor {
		return nil
	}
	size := avail
	if share {
		if size = avail / 2; size < g.floor {
			size = g.floor
		}
	}
	g.granted += size
	g.active++
	return &Grant{g: g, bytes: size}
}

// release returns bytes to the pool and admits queued waiters in FIFO order
// while grants fit.
func (g *Governor) release(bytes int64) {
	g.mu.Lock()
	g.granted -= bytes
	g.active--
	g.wakeLocked()
	g.mu.Unlock()
}

// wakeLocked admits queued waiters in FIFO order while grants fit. Caller
// holds g.mu.
func (g *Governor) wakeLocked() {
	for len(g.waiters) > 0 {
		share := g.active > 0 || len(g.waiters) > 1
		grant := g.grantLocked(share)
		if grant == nil {
			break
		}
		w := g.waiters[0]
		g.waiters = g.waiters[1:]
		w.ch <- grant // buffered; never blocks
	}
}

// abandon removes w from the queue after a timeout or cancellation. If a
// releaser granted w concurrently, the grant is taken back.
func (g *Governor) abandon(w *govWaiter) {
	g.mu.Lock()
	for i, q := range g.waiters {
		if q == w {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			g.mu.Unlock()
			return
		}
	}
	g.mu.Unlock()
	// Not queued: a grant raced our abandonment. Return it.
	select {
	case grant := <-w.ch:
		grant.Release()
	default:
	}
}

// GovernorStats is a snapshot of admission state and totals.
type GovernorStats struct {
	Total   int64 // governed budget in bytes
	Granted int64 // bytes currently granted
	Active  int   // queries currently holding a grant
	Queued  int   // queries waiting for admission
	// Cumulative totals.
	Admitted  int64         // grants handed out
	Timeouts  int64         // admissions that timed out
	WaitTotal time.Duration // total time admitted queries spent queued
}

// Stats returns a snapshot of the governor's state.
func (g *Governor) Stats() GovernorStats {
	g.mu.Lock()
	s := GovernorStats{
		Total:   g.total,
		Granted: g.granted,
		Active:  g.active,
		Queued:  len(g.waiters),
	}
	g.mu.Unlock()
	s.Admitted = g.admitted.Load()
	s.Timeouts = g.timeouts.Load()
	s.WaitTotal = time.Duration(g.waitNanos.Load())
	return s
}

// Outstanding returns the bytes currently granted (0 when every admitted
// query has released). Tests use it to assert balance.
func (g *Governor) Outstanding() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.granted
}

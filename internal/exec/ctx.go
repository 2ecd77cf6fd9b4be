// Package exec implements the execution engine: morsel-driven parallel
// streams, compiled expressions, and the relational operators — most
// importantly the paper's unified hash join (§4.5) and unified hash
// aggregation (§4.6), which materialize through Umami (internal/core) and
// therefore adaptively partition and spill without a physical operator
// choice. The classical baselines the paper measures against (grace join,
// always-partitioning and never-partitioning variants) are configurations
// of the same operators.
package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/trace"
)

// Ctx carries per-query execution settings and statistics.
type Ctx struct {
	// Context carries cancellation and deadlines for the query (nil =
	// background). Workers observe it between batches and blocking spill
	// I/O observes it within one poll interval, so a canceled query
	// aborts promptly even when a device is stuck.
	Context context.Context
	// Workers is the number of worker goroutines per pipeline.
	Workers int
	// Budget is the query's materialization memory budget (shared by all
	// materializing operators, per the engine-wide budget Spilly uses). It is
	// one object for the context's whole life — admission resizes it, nothing
	// replaces it — so every reservation and every clean-up meets it.
	Budget *pages.Budget
	// Mode is the materialization strategy for all operators (Umami's
	// adaptive mode by default; baselines for the paper's experiments).
	Mode core.Mode
	// Spill enables out-of-memory processing (nil = in-memory only).
	Spill *core.SpillConfig
	// PageSize and Partitions are upper bounds on the materialization page
	// size and the per-operator partition count (0 = 64 KiB, 64). What an
	// operator really gets is derived from them, Budget and Workers by
	// fanOut when it starts.
	PageSize   int
	Partitions int
	// PartitionAt is the adaptive partition trigger fraction
	// (0 = core.DefaultPartitionAt).
	PartitionAt float64
	// Stats accumulates query statistics; may be nil.
	Stats *Stats
	// Trace, when non-nil, collects per-operator spans for EXPLAIN
	// ANALYZE-style profiles. Nil (the default) disables tracing; every
	// operator pays exactly one nil check per Run.
	Trace *trace.Tracer
	// traceNest holds per-worker stream-nesting counters for exclusive
	// time attribution (see traceStream); allocated on first traced
	// stream wrap.
	traceNest []nestSlot
	// QueryID is the fairness key operators pass to the shared I/O
	// scheduler (Spill.Query when spilling is on). 0 is a valid key for
	// one-off contexts; engines use the spill lease ID.
	QueryID uint64
	// Grace runs the classical partitioning baselines of Figure 2: every
	// join as a grace hash join, every aggregation without local
	// pre-aggregation.
	Grace bool

	// poolMu guards pools, the per-schema batch pool registry operators
	// lease scratch batches from (see BatchPool).
	poolMu sync.Mutex
	pools  map[*data.Schema]*data.BatchPool
	// cleanupMu guards cleanups, the deferred query-end work registered by
	// operators (budget releases for materialized results, in-memory sort
	// runs). Close runs them once, in registration order.
	cleanupMu sync.Mutex
	cleanups  []func()
}

// BatchPool returns the query-lifetime batch pool for the given schema,
// creating it on first use. Every operator that fills scratch batches in a
// loop leases them here instead of calling data.NewBatch per worker.
func (c *Ctx) BatchPool(s *data.Schema) *data.BatchPool {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	if c.pools == nil {
		c.pools = make(map[*data.Schema]*data.BatchPool)
	}
	bp, ok := c.pools[s]
	if !ok {
		bp = data.NewBatchPool(s)
		c.pools[s] = bp
	}
	return bp
}

// PoolCounters sums Get/Put calls over every batch pool of the query. A
// leak-free query leaves them equal (each leased batch released exactly
// once).
func (c *Ctx) PoolCounters() (gets, puts int64) {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	for _, bp := range c.pools {
		g, p := bp.Counters()
		gets += g
		puts += p
	}
	return gets, puts
}

// AddCleanup registers fn to run when the query finishes (Ctx.Close). Safe
// for concurrent use; operators use it to release the budget reservations
// of results that outlive their phase.
func (c *Ctx) AddCleanup(fn func()) {
	c.cleanupMu.Lock()
	c.cleanups = append(c.cleanups, fn)
	c.cleanupMu.Unlock()
}

// Close runs the registered cleanups (once each) after the query's output
// has been collected. Only accounting and recycling happen here — result
// data is already copied out — so Budget.Used() drops back to zero. The
// spill lease, if any, is freed last — after every cleanup (scheduler
// drains, cursor closes) has quiesced the readers that might still touch
// the query's extents — so the array reclaims this query's spilled data.
// The context stays usable for another query: it gets a copy of the spill
// configuration without the freed lease, while the operators built under it
// keep the one they share.
func (c *Ctx) Close() {
	c.cleanupMu.Lock()
	fns := c.cleanups
	c.cleanups = nil
	c.cleanupMu.Unlock()
	for _, fn := range fns {
		fn()
	}
	if c.Spill != nil && c.Spill.Lease != nil {
		c.Spill.Lease.Free()
		spill := *c.Spill
		spill.Lease = nil
		c.Spill = &spill
	}
}

func (c *Ctx) workers() int {
	if c.Workers <= 0 {
		return 1
	}
	return c.Workers
}

// canceled returns the context's error once the query has been canceled or
// its deadline passed, nil otherwise.
func (c *Ctx) canceled() error {
	if c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

// minPageSize is the smallest page fanOut shrinks to. Tuples larger than a
// page are unsupported (§5.3), so below this the invariant gives way instead.
const minPageSize = 1 << 10

// fanOut decides Umami's fan-out — partitions per operator and page size —
// for a context of workers threads under a budget of limit bytes (§5.3). Every
// worker of a partitioning operator holds one active page per partition, and
// pages that never fill are never evicted, so that active set (workers ×
// partitions × page size) is the part of the budget spilling cannot reclaim.
// A query pipelines several materializing operators at once (Q9 holds five
// join builds): with nothing pinned the set is tuned to about 1/16 of the
// budget. Pinned values are upper bounds, and whatever the source the set
// never exceeds half the budget, down to 2 partitions of minPageSize.
func fanOut(limit int64, workers, maxParts, maxPage int) (parts, pageSize int) {
	parts, pageSize = maxParts, maxPage
	if parts <= 0 {
		parts = core.MaxPartitions
	}
	if pageSize <= 0 {
		pageSize = pages.DefaultPageSize
	}
	if limit <= 0 {
		return parts, pageSize
	}
	shrink := func(target int64, minParts, minPage int) {
		for parts > minParts && int64(workers*parts*pageSize) > target {
			parts /= 2
		}
		for pageSize >= 2*minPage && int64(workers*parts*pageSize) > target {
			pageSize /= 2
		}
	}
	if maxParts <= 0 && maxPage <= 0 {
		shrink(limit/16, 8, 4<<10)
	}
	shrink(limit/2, 2, minPageSize)
	return parts, pageSize
}

// fanOut is the context's fan-out under its budget as it stands now.
func (c *Ctx) fanOut() (parts, pageSize int) {
	return fanOut(c.Budget.Limit(), c.workers(), c.Partitions, c.PageSize)
}

// pageSize returns the materialization page size operators run with.
func (c *Ctx) pageSize() int {
	_, pageSize := c.fanOut()
	return pageSize
}

func (c *Ctx) coreConfig() core.Config {
	parts, pageSize := c.fanOut()
	return core.Config{
		Ctx:         c.Context,
		PageSize:    pageSize,
		Partitions:  parts,
		Budget:      c.Budget,
		PartitionAt: c.PartitionAt,
		Mode:        c.Mode,
		Spill:       c.Spill,
	}
}

// Stats are a query's cumulative counters: one value per row of the engine's
// counter table (metrics.Counter).
type Stats = metrics.Counters

// report is the one way operators hand counters over: n is folded into the
// query totals and, when the query is traced, into the operator's span, so a
// query's spans always add up to its totals.
func (c *Ctx) report(sp *trace.Span, n *metrics.Snapshot) {
	if c.Stats != nil {
		c.Stats.Merge(n)
	}
	sp.Merge(n)
}

// newShared creates an operator's Umami state, released when the query
// closes (core.Shared.Release), whether the operator finished or failed.
func (c *Ctx) newShared(cfg core.Config) *core.Shared {
	s := core.NewShared(cfg)
	c.AddCleanup(s.Release)
	return s
}

// finalize ends an operator's materialization phase once its workers have
// finished their buffers: the merged result is reported. The operator
// recycles its in-memory pages where their last reader is done
// (Result.Recycle); the query-end release recycles them too when it never
// got there.
func (c *Ctx) finalize(sp *trace.Span, shared *core.Shared) (*core.Result, error) {
	r, err := shared.Finalize()
	if err != nil {
		return nil, err
	}
	c.report(sp, &r.Counters)
	return r, nil
}

// Totals returns the query's counters so far, with the memory budget's
// high-water mark read from the budget the query runs under now.
func (c *Ctx) Totals() metrics.Snapshot {
	var n metrics.Snapshot
	if c.Stats != nil {
		n = c.Stats.Load()
	}
	n[metrics.BudgetPeakBytes] = c.Budget.Peak()
	return n
}

// Stream is a parallel batch stream: workers 0..Workers-1 each repeatedly
// call Next with their id until it returns 0 rows. Work distribution
// (morsel stealing) happens inside the stream.
type Stream struct {
	schema *data.Schema
	// next fills b (after resetting it) and returns the live row count
	// (len of b's selection vector when one is set), 0 at end of stream
	// for that worker.
	next func(w int, b *data.Batch) (int, error)
	// abandon, if set, tells the stream that worker w will never call
	// Next again (it failed). Streams with cross-worker synchronization
	// (the join's phase barrier) deregister the worker so the others do
	// not wait for it forever; wrappers forward to their child.
	abandon func(w int)
}

// Schema returns the stream's output schema.
func (s *Stream) Schema() *data.Schema { return s.schema }

// Next pulls the next batch for worker w.
func (s *Stream) Next(w int, b *data.Batch) (int, error) { return s.next(w, b) }

// Abandon marks worker w as permanently gone (after an error or panic).
func (s *Stream) Abandon(w int) {
	if s.abandon != nil {
		s.abandon(w)
	}
}

// Node is a physical plan node.
type Node interface {
	// Schema returns the node's output schema.
	Schema() *data.Schema
	// Run executes the node's blocking phases (if any) and returns its
	// output stream for the parent to consume.
	Run(ctx *Ctx) (*Stream, error)
}

// runWorkers runs fn for each worker id in parallel. Each worker goroutine
// is a recovery boundary: Umami's out-of-memory panic becomes ErrOutOfMemory
// (by identity), any other panic becomes a structured *core.QueryError
// attributed to op — a worker failure fails the query, never the process.
// The first error wins.
func runWorkers(op string, workers int, fn func(w int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer core.RecoverQueryPanic(op, &errs[w])
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Drain consumes a stream to completion, calling sink for every batch.
// sink is called concurrently from different workers.
func Drain(ctx *Ctx, s *Stream, sink func(w int, b *data.Batch) error) error {
	return drainWorkers(ctx, "drain", s, func(w int) (func(*data.Batch) error, func() error) {
		if sink == nil {
			return nil, nil
		}
		return func(b *data.Batch) error { return sink(w, b) }, nil
	})
}

// drainWorkers is the consume loop every blocking operator runs: each of the
// context's workers leases one batch and pulls from s until its share of the
// stream ends, checking for cancellation between batches. start runs once on
// worker w's goroutine and returns that worker's sink, called for every
// batch, and finish, called after its last one; either may be nil. Workers
// that fail — by error or by Umami's out-of-memory panic — abandon the
// stream so that streams with internal barriers release the surviving
// workers.
func drainWorkers(ctx *Ctx, op string, s *Stream, start func(w int) (sink func(b *data.Batch) error, finish func() error)) error {
	return runWorkers(op, ctx.workers(), func(w int) error {
		done := false
		defer func() {
			if !done {
				s.Abandon(w)
			}
		}()
		sink, finish := start(w)
		b := ctx.BatchPool(s.schema).Get()
		defer b.Release()
		for {
			if err := ctx.canceled(); err != nil {
				return core.WrapQueryError(op, err)
			}
			n, err := s.Next(w, b)
			if err != nil {
				return err
			}
			if n == 0 {
				done = true
				if finish != nil {
					return finish()
				}
				return nil
			}
			if sink != nil {
				if err := sink(b); err != nil {
					return err
				}
			}
		}
	})
}

// Collect runs a plan and gathers its entire output into one batch
// (results of TPC-H queries are small).
func Collect(ctx *Ctx, n Node) (*data.Batch, error) {
	s, err := n.Run(ctx)
	if err != nil {
		return nil, err
	}
	return collect(ctx, s)
}

// collect drains s into one batch.
func collect(ctx *Ctx, s *Stream) (*data.Batch, error) {
	out := data.NewBatch(s.schema, 1024)
	var mu sync.Mutex
	err := Drain(ctx, s, func(w int, b *data.Batch) error {
		mu.Lock()
		defer mu.Unlock()
		for i, n := 0, b.Rows(); i < n; i++ {
			out.AppendRowFrom(b, b.Row(i))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// barrier is a single-use latch: workers wait until every registered
// worker has either arrived or deregistered (used between the streaming and
// the spilled-partition phase of unified operators). Deregistration keeps
// a worker that died from an error or OOM from deadlocking the rest.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	total    int
	arrived  int
	released bool
}

func newBarrier(total int) *barrier {
	b := &barrier{total: total}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all still-registered workers arrive.
func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.arrived++
	if b.arrived >= b.total {
		b.released = true
		b.cond.Broadcast()
	}
	for !b.released {
		b.cond.Wait()
	}
}

// deregister removes one never-arriving worker.
func (b *barrier) deregister() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.total--
	if b.arrived >= b.total {
		b.released = true
		b.cond.Broadcast()
	}
}

// outputEnd runs an operator's release once every worker has reached the end
// of its output stream: then nothing reads the operator's tables or pages any
// more. A stream a parent stops pulling early never gets there; the query-end
// cleanups are the backstop for it and for failed queries.
type outputEnd struct {
	left    atomic.Int32
	reached []atomic.Bool
	release func()
}

func newOutputEnd(workers int, release func()) *outputEnd {
	o := &outputEnd{reached: make([]atomic.Bool, workers), release: release}
	o.left.Store(int32(workers))
	return o
}

// reach records that worker w saw the end of the stream; the last worker to
// get there runs the release. Repeated calls by one worker count once.
func (o *outputEnd) reach(w int) {
	if o.reached[w].CompareAndSwap(false, true) && o.left.Add(-1) == 0 {
		o.release()
	}
}

// errValue lets concurrent workers publish a first error.
type errValue struct {
	mu  sync.Mutex
	err error
}

func (e *errValue) set(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *errValue) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

func checkSchemaCols(s *data.Schema, cols []string) error {
	for _, c := range cols {
		if s.Index(c) < 0 {
			return fmt.Errorf("exec: column %q not in schema", c)
		}
	}
	return nil
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/uring"
)

// Mode selects the materialization strategy. Adaptive is Umami's default;
// the other modes exist as the paper's experimental baselines (Figures 2
// and 9, §6.5).
type Mode int

// Materialization modes.
const (
	// ModeAdaptive starts unpartitioned and enables partitioning and
	// spilling at runtime as needed — Umami's adaptive materialization.
	ModeAdaptive Mode = iota
	// ModeNeverPartition never partitions. With no spill configuration it
	// is the pure in-memory engine that fails when memory runs out
	// (Hyper's role in the evaluation).
	ModeNeverPartition
	// ModeAlwaysPartition partitions from the first tuple, like a grace
	// join or partitioning aggregation (the "always partitioning" baseline
	// that is ~5× slower in memory, Figure 2).
	ModeAlwaysPartition
	// ModeSpillAll partitions from the start and, once memory runs out,
	// spills every partition rather than lazily picking victims — the
	// non-hybrid baseline of §6.5.
	ModeSpillAll
)

// ErrOutOfMemory reports that the memory budget was exhausted and the
// configuration permits no spilling (in-memory-only engines).
var ErrOutOfMemory = errors.New("core: memory budget exhausted and spilling disabled")

// oomPanic carries ErrOutOfMemory through operator fast paths; the
// execution engine recovers it at the worker boundary.
type oomPanic struct{}

// RecoverOOM converts an oomPanic into ErrOutOfMemory; any other panic is
// re-raised. Use in a deferred function around operator work.
func RecoverOOM(errp *error) {
	switch r := recover(); r.(type) {
	case nil:
	case oomPanic:
		if *errp == nil {
			*errp = ErrOutOfMemory
		}
	default:
		panic(r)
	}
}

// SpillConfig enables spilling to an NVMe array.
type SpillConfig struct {
	// Array is the target NVMe array.
	Array *nvmesim.Array
	// Lease owns every spill extent the query's writers allocate; freeing
	// it at query teardown reclaims exactly this query's spilled data.
	// Nil leaves allocations unleased: they stay allocated for the array's
	// lifetime (tests that spill to an array of their own).
	Lease *nvmesim.Lease
	// Compress enables self-regulating compression over DefaultScale.
	Compress bool
	// Seed, with Compress, is the engine's regulator seed: every Buffer's
	// regulator starts at the level the engine's last measured spill
	// settled on and writes its own back when it finishes. Nil starts every
	// regulator at level 0 (tests that own their array).
	Seed *RegulatorSeed
	// Parity is the XOR parity stripe width: every Parity staging-block
	// writes form a stripe group whose parity block rebuilds a lost or
	// corrupt block on read. 0 writes no parity. Groups span distinct
	// devices when Parity+1 <= live devices. Every staging block is one
	// checksummed frame either way, so corruption is always detected.
	Parity int
	// Sched, when non-nil, is the engine's shared I/O scheduler for the
	// spill array: every ring this query creates binds to it, so spill
	// writes, readback prefetch, and demand reads are prioritized and
	// rate-shared against concurrent queries (internal/iosched). Nil leaves
	// the rings unbound: their requests go straight to the array, in
	// submission order (unit tests that own their array).
	Sched uring.Dispatcher
	// Query is the fairness key the scheduler round-robins this query's
	// requests under (the spill lease ID in engine runs).
	Query uint64
}

// Config configures one materializing operator's Umami state.
type Config struct {
	// Ctx cancels blocking spill I/O waits (nil = background). A canceled
	// context makes writers and readers abort within one I/O poll
	// interval, returning all page buffers to their pools.
	Ctx context.Context
	// PageSize is the materialization page size (default 64 KiB).
	PageSize int
	// Partitions is the partition count once partitioning activates; a
	// power of two, at most MaxPartitions (default 64).
	Partitions int
	// Budget is the operator's memory budget; nil or unlimited budgets
	// never trigger partitioning or spilling on their own.
	Budget *pages.Budget
	// PartitionAt is the fraction of the budget in use at which adaptive
	// partitioning starts (default 0.5). Partitioning must begin before
	// the budget is full so the unpartitioned head stays in memory (§4.2).
	PartitionAt float64
	// Mode selects the materialization strategy.
	Mode Mode
	// Spill enables out-of-memory processing; nil means the operator
	// fails with ErrOutOfMemory when the budget is exhausted.
	Spill *SpillConfig
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.PageSize == 0 {
		out.PageSize = pages.DefaultPageSize
	}
	if out.Partitions == 0 {
		out.Partitions = MaxPartitions
	}
	if out.Partitions > MaxPartitions || bits.OnesCount(uint(out.Partitions)) != 1 {
		panic(fmt.Sprintf("core: Partitions must be a power of two <= %d, got %d", MaxPartitions, out.Partitions))
	}
	if out.PartitionAt == 0 {
		out.PartitionAt = DefaultPartitionAt
	}
	if out.Spill != nil {
		// The operator keeps the spill config it started with: the query
		// context clears its own Lease field at Close.
		s := *out.Spill
		out.Spill = &s
	}
	return out
}

// Shared is the cross-thread state of one materializing operator: the
// budget, the partitioning trigger, and the hybrid spill mask. Create one
// Shared per operator instance and one Buffer per worker thread.
type Shared struct {
	cfg         Config
	partShift   uint // shift value once partitioning is active
	partitionOn atomic.Bool
	mask        SpillMask

	mu       sync.Mutex
	result   Result
	merged   int
	firstErr error
}

// NewShared returns the shared state for one operator.
func NewShared(cfg Config) *Shared {
	c := cfg.withDefaults()
	s := &Shared{cfg: c}
	s.partShift = uint(64 - bits.TrailingZeros(uint(c.Partitions)))
	if c.Mode == ModeAlwaysPartition || c.Mode == ModeSpillAll {
		s.partitionOn.Store(true)
	}
	s.result.Partitions = c.Partitions
	s.result.Spilled = make([][]SpilledSlot, c.Partitions)
	s.result.inMemByPart = make([][]*pages.Page, c.Partitions)
	return s
}

// Config returns the operator configuration (with defaults applied).
func (s *Shared) Config() Config { return s.cfg }

// PartitioningActive reports whether partitioning has been enabled.
func (s *Shared) PartitioningActive() bool { return s.partitionOn.Load() }

// Mask returns the hybrid spill mask.
func (s *Shared) Mask() *SpillMask { return &s.mask }

// triggerPartitioning flips the shared partitioning flag; all threads
// switch at their next page allocation.
func (s *Shared) triggerPartitioning() { s.partitionOn.Store(true) }

// shouldPartition is the adaptive heuristic: Spilly triggers partitioning
// once the operator's allocated memory exceeds PartitionAt × budget (§5.3).
func (s *Shared) shouldPartition() bool {
	b := s.cfg.Budget
	if b == nil || b.Limit() <= 0 {
		return false
	}
	return float64(b.Used()) >= s.cfg.PartitionAt*float64(b.Limit())
}

// Buffer is the per-thread Umami materialization buffer (paper Listing 1).
// Not safe for concurrent use.
type Buffer struct {
	s     *Shared
	shift uint
	parts int

	output []*pages.Page // active page per partition index (hash >> shift)

	perPart   [][]*pages.Page // finalized in-memory pages per partition
	unpart    []*pages.Page   // finalized unpartitioned pages
	partBytes []int64         // local in-memory bytes per partition

	pool   *pages.Pool
	writer *spillWriter
	reg    *Regulator

	lastAlloc time.Time
	tuples    int64
	finished  bool
}

// NewBuffer returns a worker-thread buffer attached to s.
func (s *Shared) NewBuffer() *Buffer {
	cfg := s.cfg
	b := &Buffer{
		s:         s,
		shift:     64,
		parts:     1,
		output:    make([]*pages.Page, 1),
		perPart:   make([][]*pages.Page, cfg.Partitions),
		partBytes: make([]int64, cfg.Partitions),
		pool:      pages.NewPool(cfg.PageSize, 0, cfg.Budget),
	}
	if s.partitionOn.Load() {
		b.enablePartitioning()
	}
	if cfg.Spill != nil {
		ring := uring.New(cfg.Spill.Array)
		ring.SetLease(cfg.Spill.Lease)
		ring.Bind(cfg.Spill.Sched, uring.ClassSpillWrite, cfg.Spill.Query)
		if cfg.Spill.Compress {
			b.reg = newSeededRegulator(regulatorRun, cfg.Spill.Seed)
		}
		b.writer = newSpillWriter(cfg.Ctx, ring, b.reg, b.pool, cfg.Partitions, cfg.Spill.Parity)
	}
	return b
}

// Regulator returns the thread's compression regulator, or nil.
func (b *Buffer) Regulator() *Regulator { return b.reg }

// Tuples returns the number of tuples stored through this buffer.
func (b *Buffer) Tuples() int64 { return b.tuples }

// StoreTuple copies tuple into the buffer under the given hash. This is the
// operator-independent materialization fast path: one shift, one array
// index, one bounds check, one copy (paper Listing 1).
func (b *Buffer) StoreTuple(tuple []byte, hash uint64) {
	p := b.output[hash>>b.shift]
	if p == nil || !p.HasSpace(len(tuple)) {
		p = b.getEmptyPage(hash, len(tuple))
	}
	if _, ok := p.Append(tuple); !ok {
		// A fresh page cannot hold the tuple: objects larger than the
		// page size are unsupported, as in the paper's prototype (§5.3).
		panic(fmt.Sprintf("core: tuple of %d bytes exceeds page capacity", len(tuple)))
	}
	b.tuples++
}

// AllocTuple reserves size bytes in the buffer under the given hash and
// returns the slice to fill in place. Operators that assemble tuples
// field-wise (the aggregation's in-page groups, §4.6) use this.
func (b *Buffer) AllocTuple(size int, hash uint64) []byte {
	p := b.output[hash>>b.shift]
	if p == nil || !p.HasSpace(size) {
		p = b.getEmptyPage(hash, size)
	}
	dst, ok := p.Alloc(size)
	if !ok {
		panic(fmt.Sprintf("core: tuple of %d bytes exceeds page capacity", size))
	}
	b.tuples++
	return dst
}

// partOf returns the partition index for a hash under the active shift,
// or PartUnpartitioned when partitioning is off.
func (b *Buffer) partOf(hash uint64) int {
	if b.shift == 64 {
		return pages.PartUnpartitioned
	}
	return int(hash >> b.shift)
}

// getEmptyPage is the slow path, entered once per filled page. All of
// Umami's adaptivity — the partitioning decision, the spilling decision,
// victim choice, and regulator bookkeeping — lives here, amortized over
// the tuples of a page (paper §4.2).
func (b *Buffer) getEmptyPage(hash uint64, need int) *pages.Page {
	cfg := &b.s.cfg
	idx := hash >> b.shift
	old := b.output[idx]

	// A. Operator cost tracking for self-regulating compression.
	b.observeFill(old)
	defer b.markAlloc()

	// Retire the full page.
	if old != nil {
		b.retire(old)
		b.output[idx] = nil
	}

	// Partitioning decision (adaptive modes only).
	if b.shift == 64 && cfg.Mode != ModeNeverPartition {
		if b.s.partitionOn.Load() || (cfg.Mode == ModeAdaptive && b.s.shouldPartition()) {
			b.s.triggerPartitioning()
			b.enablePartitioning()
			idx = hash >> b.shift
		}
	}

	// Spilling decision.
	if cfg.Budget.Exhausted(cfg.PageSize) && b.pool.FreePages() == 0 {
		b.makeRoom()
	}

	p := b.pool.Get()
	p.Part = b.partOf(hash)
	b.output[idx] = p
	return p
}

// observeFill feeds the regulator the operator time spent filling p. The
// interval runs from the END of the previous allocation to now, so that time
// stalled inside allocation (waiting for I/O completions) is not
// misattributed to operator CPU cost — that would suppress compression
// exactly when the engine is I/O-bound.
func (b *Buffer) observeFill(p *pages.Page) {
	if b.reg != nil && !b.lastAlloc.IsZero() && p != nil {
		b.reg.ObserveOperator(time.Since(b.lastAlloc), p.UsedBytes())
	}
}

// markAlloc starts the next page's operator-time interval.
func (b *Buffer) markAlloc() {
	if b.reg != nil {
		b.lastAlloc = time.Now()
	}
}

// retire moves a full page out of the active slot: spilled partitions go to
// the writer, everything else stays in memory.
func (b *Buffer) retire(p *pages.Page) {
	if p.Tuples() == 0 {
		b.pool.Put(p)
		return
	}
	if p.Part == pages.PartUnpartitioned {
		b.unpart = append(b.unpart, p)
		return
	}
	if b.writer != nil && b.s.mask.IsSpilled(p.Part) {
		b.writer.spillPage(p)
		return
	}
	b.perPart[p.Part] = append(b.perPart[p.Part], p)
	b.partBytes[p.Part] += int64(p.UsedBytes())
}

// enablePartitioning switches this thread to partitioned materialization.
// Previously materialized pages stay where they are — phase 2 algorithms
// are partition-agnostic over in-memory data (§4.2 "Independence").
func (b *Buffer) enablePartitioning() {
	if b.shift != 64 {
		return
	}
	if p := b.output[0]; p != nil && p.Tuples() > 0 {
		b.unpart = append(b.unpart, p)
	} else if p != nil {
		b.pool.Put(p)
	}
	b.parts = b.s.cfg.Partitions
	b.shift = b.s.partShift
	b.output = make([]*pages.Page, b.parts)
}

// makeRoom frees page memory when the budget is exhausted: reap finished
// writes first; otherwise evict a victim partition chosen through the
// hybrid spill mask; fail only when spilling is impossible.
func (b *Buffer) makeRoom() {
	if b.writer == nil {
		panic(oomPanic{})
	}
	// Finished writes return pages to the pool for free.
	b.writer.drain(false)
	if b.pool.FreePages() > 0 {
		return
	}
	if b.s.cfg.Mode == ModeSpillAll {
		b.s.mask.mask.Store(1<<uint(b.parts) - 1)
		b.evictLocal()
		if b.pool.FreePages() > 0 || b.writer.ring.Outstanding() > 0 {
			b.awaitPage()
			return
		}
	}
	// Steady state: pages are already in flight to the array; wait for
	// one instead of widening the spill set (Listing 2's bounded pool).
	if b.writer.ring.Outstanding() > 0 || b.writer.ring.Pending() > 0 {
		b.awaitPage()
		if b.pool.FreePages() > 0 {
			return
		}
	}
	// Hybrid victim choice: prefer already-spilled partitions, else the
	// largest local one (§5.3).
	if part, ok := b.s.mask.Choose(b.partBytes); ok {
		b.evictPartition(part)
	}
	if b.pool.FreePages() == 0 && b.writer.ring.Outstanding() > 0 {
		b.awaitPage()
		return
	}
	// Last resort: no retired pages anywhere and nothing in flight — the
	// budget is below the active-page working set (workers × partitions ×
	// page size). Evict this thread's entire active page set in one burst
	// rather than overrunning memory without bound; bursting amortizes
	// the eviction, where one-page-at-a-time eviction would thrash with
	// near-empty pages.
	if b.pool.FreePages() == 0 && b.shift != 64 {
		b.evictAllActive()
		if b.pool.FreePages() == 0 && b.writer.ring.Outstanding() > 0 {
			b.awaitPage()
			return
		}
	}
	if b.pool.FreePages() == 0 {
		// Nothing local to evict and nothing in flight. If partitioning
		// has not produced local pages yet (e.g. all data arrived before
		// the trigger), we must overrun the budget rather than lose data;
		// the next allocations will partition and spilling catches up.
		if !b.s.PartitioningActive() && b.s.cfg.Mode != ModeNeverPartition {
			b.s.triggerPartitioning()
		}
	}
}

// evictPartition spills every local retired in-memory page of partition
// part.
func (b *Buffer) evictPartition(part int) {
	pgs := b.perPart[part]
	b.perPart[part] = nil
	b.partBytes[part] = 0
	for _, p := range pgs {
		b.writer.spillPage(p)
	}
	b.writer.pump()
}

// evictAllActive spills this thread's active pages that are at least a
// quarter full, marking their partitions spilled. Near-empty pages are NOT
// evicted: spilling them would bound memory at the cost of unbounded write
// amplification (each spilled page is a full page on the device regardless
// of fill). Keeping them caps the overrun at the active working set while
// capping amplification at 4x.
func (b *Buffer) evictAllActive() {
	threshold := b.s.cfg.PageSize / 4
	for part, p := range b.output {
		if p == nil || p.UsedBytes() < threshold {
			continue
		}
		b.output[part] = nil
		b.s.mask.MarkSpilled(part)
		b.writer.spillPage(p)
	}
	b.writer.pump()
}

// evictLocal spills every local partitioned page (spill-all mode).
func (b *Buffer) evictLocal() {
	for part := range b.perPart {
		b.evictPartition(part)
	}
}

// awaitPage blocks until at least one in-flight write completes, returning
// its page (or staging buffer) to the pool.
func (b *Buffer) awaitPage() {
	b.writer.ring.Submit()
	for b.pool.FreePages() == 0 && b.writer.ring.Outstanding() > 0 {
		b.writer.drain(true)
	}
}

// SpillRun writes one run — n tuples, tuple(i) the i-th in run order — as an
// ordered sequence of pages from the buffer's pool, down an evicted hash
// partition's path (staging, regulator, frames and parity, retries,
// cancellation); its slots come back in order as one of the Result's Runs.
// The writes overlap whatever the caller does next; Finish waits for them.
// SpillRun returns the writer's first error so far. The regulator's page
// clock runs on between runs, so a run's first page carries the time the
// caller spent generating the run.
func (b *Buffer) SpillRun(n int, tuple func(i int) []byte) error {
	if b.writer == nil {
		panic(oomPanic{})
	}
	run := b.writer.newRun()
	var p *pages.Page
	for i := 0; i < n; i++ {
		t := tuple(i)
		if p == nil || !p.HasSpace(len(t)) {
			p = b.runPage(p, run)
		}
		if _, ok := p.Append(t); !ok {
			panic(fmt.Sprintf("core: tuple of %d bytes exceeds page capacity", len(t)))
		}
	}
	if p != nil {
		b.observeFill(p)
		b.writer.spillPage(p)
		b.markAlloc()
	}
	b.writer.flushStaging(run)
	b.writer.pump()
	return b.writer.firstErr
}

// runPage spills a run's full page, if any, and returns an empty one for the
// run. With the budget exhausted and no free page it first waits for an
// in-flight write to hand one back.
func (b *Buffer) runPage(full *pages.Page, run int) *pages.Page {
	if full != nil {
		b.observeFill(full)
		b.writer.spillPage(full)
	}
	if b.s.cfg.Budget.Exhausted(b.s.cfg.PageSize) && b.pool.FreePages() == 0 {
		b.awaitPage()
	}
	p := b.pool.Get()
	p.Part = run
	if full != nil {
		b.markAlloc()
	}
	return p
}

// Finish completes this thread's materialization phase: retires active
// pages, flushes spill staging, waits for outstanding writes, and merges
// local state into the shared Result. Call exactly once per buffer, after
// the last StoreTuple.
func (b *Buffer) Finish() error {
	if b.finished {
		return nil
	}
	b.finished = true
	for i, p := range b.output {
		if p != nil {
			b.retire(p)
			b.output[i] = nil
		}
	}
	var err error
	if b.writer != nil {
		err = b.writer.finish()
	}
	// Clean pages the writer returned to the pool are dead now: release
	// their budget reservation so it tracks only pages that carry tuples.
	b.pool.Close()
	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil && s.firstErr == nil {
		s.firstErr = err
	}
	r := &s.result
	r.Tuples += b.tuples
	r.Counters[metrics.TuplesStored] += b.tuples
	r.Unpartitioned = append(r.Unpartitioned, b.unpart...)
	for part, pgs := range b.perPart {
		r.InMemory = append(r.InMemory, pgs...)
		r.inMemByPart[part] = append(r.inMemByPart[part], pgs...)
	}
	if b.writer != nil {
		parts := s.cfg.Partitions
		for part, slots := range b.writer.slots[:parts] {
			r.Spilled[part] = append(r.Spilled[part], slots...)
		}
		for i, slots := range b.writer.slots[parts:] {
			r.Runs = append(r.Runs, PartitionWork{Part: parts + i, Slots: slots})
		}
		r.SpilledPages += b.writer.spilledPages
		r.Counters.Merge(&b.writer.counts)
		r.Stripes = append(r.Stripes, b.writer.stripes...)
	}
	if b.reg != nil {
		s.cfg.Spill.Seed.settle(b.reg)
		r.SchemeHistogram = MergeHistograms(r.SchemeHistogram, b.reg.SchemeHistogram())
		r.Counters.Merge(&metrics.Snapshot{
			metrics.RegLevelChanges: int64(b.reg.LevelChanges()),
			metrics.RegMaxLevel:     int64(b.reg.MaxLevel()),
		})
	}
	s.merged++
	return err
}

// Result is the outcome of an operator's materialization phase, aggregated
// over all threads.
type Result struct {
	// InMemory holds the partitioned in-memory pages; Unpartitioned holds
	// pages materialized before partitioning started. Phase-2 algorithms
	// treat their union uniformly (§4.2 "Independence").
	InMemory      []*pages.Page
	Unpartitioned []*pages.Page
	// Spilled lists the spilled page slots per partition.
	Spilled [][]SpilledSlot
	// Runs lists the runs written by SpillRun, each a readback work item:
	// its slots in the order its pages were written, and as Part the index
	// its frames carry.
	Runs []PartitionWork
	// Partitions is the partition count; Mask the spilled-partition bits.
	Partitions int
	Mask       uint64

	// Stripes is the parity stripe directory (SpillConfig.Parity > 0):
	// every staging block's location mapped to the group whose XOR parity
	// can rebuild it. Readers consult it to reconstruct lost or corrupt
	// blocks on read.
	Stripes []*StripeGroup

	Tuples       int64
	SpilledPages int64

	// Counters is everything the phase measured, merged over all threads:
	// tuples stored, raw/written/parity spill bytes, write retries and
	// failovers, regulator activity, and — set by Finalize — whether the
	// operator partitioned and whether it spilled. The operator reports it
	// as one unit.
	Counters        metrics.Snapshot
	SchemeHistogram map[codec.ID]int64

	inMemByPart [][]*pages.Page

	endMu    sync.Mutex
	recycled bool  // the in-memory pages' buffers are back in the recycler
	released bool  // and their budget reservation is returned
	reserved int64 // what that reservation was, counted before recycling
}

// Recycle hands the result's in-memory page buffers to the recycler, where
// the next operator — of this query or another — takes them. Operators call
// it where the pages' last reader is done: the aggregation after its global
// merge, the join once every worker is through the probe phase that reads
// them, the sort and the window after emit. The pages' budget reservation
// stays until ReleaseMemory at query end, as if they were still held: which
// operators of a query spill does not depend on when an earlier one
// finished. Idempotent and safe for concurrent use. Afterwards the pages are
// gone: a tuple view that still aliases one reads whatever the buffer's next
// owner wrote there.
func (r *Result) Recycle() {
	if r == nil {
		return
	}
	r.endMu.Lock()
	defer r.endMu.Unlock()
	r.recycleLocked()
}

func (r *Result) recycleLocked() {
	if r.recycled {
		return
	}
	r.recycled = true
	for _, pgs := range [2][]*pages.Page{r.InMemory, r.Unpartitioned} {
		for _, p := range pgs {
			r.reserved += int64(p.Size())
			p.Recycle()
		}
	}
}

// ReleaseMemory returns the budget reservation of the result's in-memory
// pages, recycling them first if the operator has not. exec.Ctx registers it
// as a query-end cleanup, so Budget.Used() returns to zero after every
// query, failed and canceled ones included. Idempotent and safe for
// concurrent use.
func (r *Result) ReleaseMemory(budget *pages.Budget) {
	if r == nil {
		return
	}
	r.endMu.Lock()
	defer r.endMu.Unlock()
	if r.released {
		return
	}
	r.released = true
	r.recycleLocked()
	budget.Release(r.reserved)
}

// Finalize returns the merged result once every thread's buffer has called
// Finish. It returns the first spill error encountered, if any.
func (s *Shared) Finalize() (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.result.Mask = s.mask.Load()
	if s.result.Mask != 0 || len(s.result.Runs) > 0 {
		s.result.Counters[metrics.SpilledOps] = 1
	}
	if s.PartitioningActive() {
		s.result.Counters[metrics.Partitioned] = 1
	}
	if s.result.SchemeHistogram == nil {
		s.result.SchemeHistogram = map[codec.ID]int64{}
	}
	return &s.result, s.firstErr
}

// InMemoryByPart returns the in-memory partitioned pages of partition p.
// Used with locality hints during hash table build (§5.3).
func (r *Result) InMemoryByPart(p int) []*pages.Page { return r.inMemByPart[p] }

// HasSpilled reports whether any partition spilled.
func (r *Result) HasSpilled() bool { return r.Mask != 0 }

// SpilledPartitions returns the indices of spilled partitions.
func (r *Result) SpilledPartitions() []int {
	var out []int
	for p := 0; p < r.Partitions; p++ {
		if r.Mask&(1<<uint(p)) != 0 {
			out = append(out, p)
		}
	}
	return out
}

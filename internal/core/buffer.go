package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
	// (Hyper's role in the evaluation). The external sort runs its buffers
	// in it too: they spill only the runs SpillRun writes, never a hash
	// partition.
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
	runs        atomic.Int64 // sorted runs numbered so far (newRun)

	mu        sync.Mutex
	bufs      []*Buffer // every buffer NewBuffer made, for Release
	result    Result
	collected bool // the finished buffers' pages are in result (collectLocked)
	firstErr  error
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
	s.result.InMemory = make([][]*pages.Page, c.Partitions)
	return s
}

// Config returns the operator configuration (with defaults applied).
func (s *Shared) Config() Config { return s.cfg }

// newRun numbers the operator's next sorted run: its stream in
// Result.Spilled, after the hash partitions.
func (s *Shared) newRun() int { return s.cfg.Partitions + int(s.runs.Add(1)-1) }

// PartitioningActive reports whether partitioning has been enabled.
func (s *Shared) PartitioningActive() bool { return s.partitionOn.Load() }

// Mask returns the hybrid spill mask.
func (s *Shared) Mask() *SpillMask { return &s.mask }

// triggerPartitioning flips the shared partitioning flag; all threads
// switch at their next page allocation.
func (s *Shared) triggerPartitioning() { s.partitionOn.Store(true) }

// Partition switches the operator to partitioned materialization in
// ModeAdaptive, whatever the budget says: this thread at once, the others at
// their next page. An operator calls it when it learns that its input is
// large — the aggregation when a worker's pre-aggregation table overflows —
// so that its phase 2 can take the input a partition at a time, each
// partition touching its own shards of the global table (§5.3 locality).
// The other modes ignore it: ModeNeverPartition stays the non-partitioning
// reference, and the partitioning modes partition from the start.
func (b *Buffer) Partition() {
	if b.s.cfg.Mode != ModeAdaptive {
		return
	}
	b.s.triggerPartitioning()
	b.enablePartitioning()
}

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

	// kept holds the retired in-memory pages, unpartitioned and partitioned
	// alike, in retirement order; the operator's Result buckets them by Part
	// once, when it collects them.
	kept      []*pages.Page
	partBytes []int64 // local in-memory bytes per partition, once partitioned

	pool   *pages.Pool
	writer *spillWriter // built at the first spill (spill)
	reg    *Regulator

	lastAlloc time.Time
	tuples    int64
	finished  bool
}

// NewBuffer returns a worker-thread buffer attached to s.
func (s *Shared) NewBuffer() *Buffer {
	cfg := s.cfg
	b := &Buffer{
		s:      s,
		shift:  64,
		parts:  1,
		output: make([]*pages.Page, 1),
		pool:   pages.NewPool(cfg.PageSize, 0, cfg.Budget),
	}
	if s.partitionOn.Load() {
		b.enablePartitioning()
	}
	s.mu.Lock()
	s.bufs = append(s.bufs, b)
	s.mu.Unlock()
	if cfg.Spill != nil && cfg.Spill.Compress {
		b.reg = newSeededRegulator(regulatorRun, cfg.Spill.Seed)
	}
	return b
}

// spill returns the buffer's spill writer, built on first use: most buffers
// never spill, and a writer brings a ring with its scheduler registration
// and per-partition lists. Callers check that cfg.Spill is set.
func (b *Buffer) spill() *spillWriter {
	if b.writer == nil {
		cfg := &b.s.cfg
		ring := uring.New(cfg.Spill.Array)
		ring.SetLease(cfg.Spill.Lease)
		ring.Bind(cfg.Spill.Sched, uring.ClassSpillWrite, cfg.Spill.Query)
		b.writer = newSpillWriter(cfg.Ctx, ring, b.reg, b.pool, cfg.Partitions, cfg.Spill.Parity)
	}
	return b.writer
}

// Regulator returns the thread's compression regulator, or nil.
func (b *Buffer) Regulator() *Regulator { return b.reg }

// StoreTuple copies tuple into the buffer under the given hash. This is the
// operator-independent materialization fast path: one shift, one array
// index, one bounds check, one copy (paper Listing 1).
func (b *Buffer) StoreTuple(tuple []byte, hash uint64) {
	p := b.output[hash>>b.shift]
	if p == nil || !p.HasSpace(len(tuple)) {
		p = b.getEmptyPage(hash)
	}
	if _, ok := p.Append(tuple); !ok {
		// A fresh page cannot hold the tuple: objects larger than the
		// page size are unsupported, as in the paper's prototype (§5.3).
		panic(fmt.Sprintf("core: tuple of %d bytes exceeds page capacity", len(tuple)))
	}
	b.tuples++
}

// Reserve reserves tuples of the given sizes under the given hashes, in
// order, setting dsts[i] to the i-th one's bytes, and returns how many: all,
// or those before the first one after the first that needs a fresh page.
// Only the first may enter getEmptyPage — the partitioning switch, spilling,
// the out-of-memory panic — so nothing moves a destination until the next
// call, and the caller fills them all before it. Unpartitioned, they are one
// run on one page (Page.AllocRun).
func (b *Buffer) Reserve(sizes []int, hashes []uint64, dsts [][]byte) int {
	p := b.output[hashes[0]>>b.shift]
	if p == nil || !p.HasSpace(sizes[0]) {
		p = b.getEmptyPage(hashes[0])
	}
	n := 0
	if b.shift == 64 {
		n = p.AllocRun(sizes, dsts)
	} else {
		for ; n < len(sizes); n++ {
			if n > 0 {
				if p = b.output[hashes[n]>>b.shift]; p == nil {
					break
				}
			}
			dst, ok := p.Alloc(sizes[n])
			if !ok {
				break
			}
			dsts[n] = dst
		}
	}
	if n == 0 {
		// A fresh page cannot hold the tuple (see StoreTuple).
		panic(fmt.Sprintf("core: tuple of %d bytes exceeds page capacity", sizes[0]))
	}
	b.tuples += int64(n)
	return n
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
func (b *Buffer) getEmptyPage(hash uint64) *pages.Page {
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
	if b.Exhausted() {
		b.makeRoom()
	}

	p := b.pool.Get()
	p.Part = b.partOf(hash)
	b.output[idx] = p
	return p
}

// Exhausted reports whether the next page the buffer's pool hands out would
// overrun the budget: the budget has no room for one more page and the pool
// has no free one. It is the spill trigger of the buffer's own partitions and
// of a sort's runs.
func (b *Buffer) Exhausted() bool {
	return b.s.cfg.Budget.Exhausted(b.s.cfg.PageSize) && b.pool.FreePages() == 0
}

// Pool returns the buffer's page pool to a caller that fills pages itself, a
// sort accumulating a run. It asks Exhausted before each Get (and spills a
// run first when it says so), gives back clean pages with Put and dead ones
// with Discard, and hands those still read after Finish to Keep.
func (b *Buffer) Pool() *pages.Pool { return b.pool }

// Keep hands pages taken from Pool, and still read after Finish, to the
// Result: they come back in Result.Unpartitioned, Result.Recycle recycles
// them and ReleaseMemory returns their charge, as for the buffer's own pages.
func (b *Buffer) Keep(pgs []*pages.Page) { b.kept = append(b.kept, pgs...) }

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
	if p.Part != pages.PartUnpartitioned {
		if b.s.cfg.Spill != nil && b.s.mask.IsSpilled(p.Part) {
			b.spill().spillPage(p)
			return
		}
		b.partBytes[p.Part] += int64(p.UsedBytes())
	}
	b.kept = append(b.kept, p)
}

// enablePartitioning switches this thread to partitioned materialization.
// Previously materialized pages stay where they are — phase 2 algorithms
// are partition-agnostic over in-memory data (§4.2 "Independence").
func (b *Buffer) enablePartitioning() {
	if b.shift != 64 {
		return
	}
	if p := b.output[0]; p != nil && p.Tuples() > 0 {
		b.kept = append(b.kept, p)
	} else if p != nil {
		b.pool.Put(p)
	}
	b.parts = b.s.cfg.Partitions
	b.shift = b.s.partShift
	b.output = make([]*pages.Page, b.parts)
	b.partBytes = make([]int64, b.parts)
	// Every partition's open page retires at Finish, and a partition fills
	// some before: room for two pages each grows the list once, not log-many
	// times.
	b.kept = slices.Grow(b.kept, 2*b.parts)
}

// makeRoom frees page memory when the budget is exhausted: reap finished
// writes first; otherwise evict a victim partition chosen through the
// hybrid spill mask; fail only when spilling is impossible.
func (b *Buffer) makeRoom() {
	if b.s.cfg.Spill == nil {
		panic(oomPanic{})
	}
	// Finished writes return pages to the pool for free.
	b.spill().drain(false)
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
		if !b.s.PartitioningActive() {
			b.s.triggerPartitioning()
		}
	}
}

// evictPartition spills every local retired in-memory page of partition
// part (none before this buffer partitions).
func (b *Buffer) evictPartition(part int) {
	if part < len(b.partBytes) && b.partBytes[part] > 0 {
		kept := b.kept[:0]
		for _, p := range b.kept {
			if p.Part == part {
				b.writer.spillPage(p)
			} else {
				kept = append(kept, p)
			}
		}
		clear(b.kept[len(kept):])
		b.kept = kept
		b.partBytes[part] = 0
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
	for part := range b.partBytes {
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
// cancellation); its slots come back in order as one of the Result's
// streams after the hash partitions.
// The writes overlap whatever the caller does next; Finish waits for them.
// SpillRun returns the writer's first error so far. The regulator's page
// clock runs on between runs, so a run's first page carries the time the
// caller spent generating the run.
func (b *Buffer) SpillRun(n int, tuple func(i int) []byte) error {
	if b.s.cfg.Spill == nil {
		panic(oomPanic{})
	}
	run := b.s.newRun()
	b.spill().newRun(run)
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
// run. It does not wait for the budget: spillPage hands a run's page back to
// the pool as soon as its bytes are staged, so a run holds one page at a time
// whatever its length, and an in-flight write returns a staging buffer, never
// a page.
func (b *Buffer) runPage(full *pages.Page, run int) *pages.Page {
	if full != nil {
		b.observeFill(full)
		b.writer.spillPage(full)
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
// local state into the shared Result; its in-memory pages join the Result at
// Finalize. Call exactly once per buffer, after the last StoreTuple.
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
	r.Counters[metrics.TuplesStored] += b.tuples
	if b.writer != nil {
		if n := len(b.writer.slots); n > len(r.Spilled) {
			r.Spilled = append(r.Spilled, make([][]SpilledSlot, n-len(r.Spilled))...)
		}
		for st, slots := range b.writer.slots {
			r.Spilled[st] = append(r.Spilled[st], slots...)
		}
		r.Counters.Merge(&b.writer.counts)
		r.Stripes = append(r.Stripes, b.writer.stripes...)
	}
	if b.reg != nil {
		s.cfg.Spill.Seed.settle(b.reg)
		r.Counters.Merge(&metrics.Snapshot{
			metrics.RegLevelChanges: int64(b.reg.LevelChanges()),
			metrics.RegMaxLevel:     int64(b.reg.MaxLevel()),
		})
	}
	return err
}

// collectLocked moves the finished buffers' in-memory pages into the result,
// once: one array of them, the unpartitioned pages first and then each
// partition's, which Unpartitioned and InMemory slice, each list in buffer
// order and within a buffer in retirement order.
func (s *Shared) collectLocked() {
	if s.collected {
		return
	}
	s.collected = true
	// at[p+2] counts partition p's pages, at[1] the unpartitioned ones; summed
	// up, at[p+1] is where partition p's pages start, at[0] = 0 where the
	// unpartitioned ones do.
	var at [MaxPartitions + 2]int
	for _, b := range s.bufs {
		if b.finished {
			for _, p := range b.kept {
				at[p.Part+2]++
			}
		}
	}
	for i := 2; i < len(at); i++ {
		at[i] += at[i-1]
	}
	n := at[len(at)-1]
	if n == 0 {
		return
	}
	all := make([]*pages.Page, n)
	ends := at
	for _, b := range s.bufs {
		if b.finished {
			for _, p := range b.kept {
				all[ends[p.Part+1]] = p
				ends[p.Part+1]++
			}
			b.kept = nil
		}
	}
	r := &s.result
	r.Unpartitioned = all[:at[1]:at[1]]
	for part := range r.InMemory {
		r.InMemory[part] = all[at[part+1]:at[part+2]:at[part+2]]
	}
}

// Release gives back what the operator holds once its workers have stopped:
// its result's in-memory pages with their charge (Result.ReleaseMemory), and
// the charge of every page a buffer's pool handed out when its worker failed
// before Finish (their buffers are left to the collector). exec.Ctx registers
// it as a query-end cleanup when it creates the operator, so a failed or
// canceled query leaves no budget charged either. Idempotent.
func (s *Shared) Release() {
	s.mu.Lock()
	s.collectLocked()
	bufs := s.bufs
	s.bufs = nil
	s.mu.Unlock()
	for _, b := range bufs {
		if !b.finished {
			if b.writer != nil {
				b.writer.abort(nil)
			}
			b.pool.Drop()
		}
	}
	s.result.ReleaseMemory(s.cfg.Budget)
}

// Result is the outcome of an operator's materialization phase, aggregated
// over all threads.
type Result struct {
	// InMemory holds the partitioned in-memory pages, one list per
	// partition; Unpartitioned holds pages materialized before partitioning
	// started. Phase-2 algorithms treat their union uniformly (§4.2
	// "Independence", MemPages).
	InMemory      [][]*pages.Page
	Unpartitioned []*pages.Page
	// Spilled lists the spilled page slots per stream: the hash partitions,
	// then the runs SpillRun wrote, each run's slots in the order its pages
	// were written. A stream's index is the partition its frames carry.
	Spilled [][]SpilledSlot
	// Partitions is the partition count; Mask the spilled-partition bits.
	Partitions int
	Mask       uint64

	// Stripes is the parity stripe directory (SpillConfig.Parity > 0):
	// every staging block's location mapped to the group whose XOR parity
	// can rebuild it. Readers consult it to reconstruct lost or corrupt
	// blocks on read.
	Stripes []*StripeGroup

	// Counters is everything the phase measured, merged over all threads:
	// tuples stored, raw/written/parity spill bytes, spilled pages per
	// scheme, write retries and failovers, regulator activity, and — set by
	// Finalize — whether the operator partitioned and whether it spilled.
	// The operator reports it as one unit.
	Counters metrics.Snapshot

	endMu    sync.Mutex
	recycled bool  // the in-memory pages' buffers are back in the recycler
	released bool  // and their budget reservation is returned
	reserved int64 // what that reservation was, counted before recycling

	readers []*PartitionScheduler // reading the spilled streams; ReleaseMemory closes them
}

// Recycle hands the result's in-memory page buffers to the recycler, where
// the next operator — of this query or another — takes them. Operators call
// it where the pages' last reader is done: the aggregation after its global
// merge, the join once every worker is through the probe phase that reads
// them, the sort and the window after emit. The pages' budget reservation
// stays until ReleaseMemory at query end, as if they were still held: which
// operators of a query spill does not depend on when an earlier one
// finished. Idempotent and safe for concurrent use. Afterwards the pages are
// gone, and the result lists none: a tuple view that still aliases one reads
// whatever the buffer's next owner wrote there.
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
	recycle := func(pgs []*pages.Page) {
		for _, p := range pgs {
			r.reserved += int64(p.Size())
			p.Recycle()
		}
	}
	recycle(r.Unpartitioned)
	for _, pgs := range r.InMemory {
		recycle(pgs)
	}
	// The Page structs are recycled too, and may already be another
	// operator's.
	r.Unpartitioned = nil
	clear(r.InMemory)
}

// ReleaseMemory returns the budget reservation of the result's in-memory
// pages, recycling them first if the operator has not, and closes the
// schedulers reading its spilled streams back. exec.Ctx registers it as a
// query-end cleanup, so Budget.Used() returns to zero after every query,
// failed and canceled ones included. Idempotent and safe for concurrent use.
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
	for _, s := range r.readers {
		s.Close()
	}
	r.readers = nil
	r.recycleLocked()
	budget.Release(r.reserved)
}

// addReader registers a scheduler reading the result for ReleaseMemory to
// close.
func (r *Result) addReader(s *PartitionScheduler) {
	r.endMu.Lock()
	r.readers = append(r.readers, s)
	r.endMu.Unlock()
}

// Finalize returns the merged result once every thread's buffer has called
// Finish. It returns the first spill error encountered, if any.
func (s *Shared) Finalize() (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.collectLocked()
	s.result.Mask = s.mask.Load()
	if s.result.Mask != 0 || len(s.result.Spilled) > s.result.Partitions {
		s.result.Counters[metrics.SpilledOps] = 1
	}
	if s.PartitioningActive() {
		s.result.Counters[metrics.Partitioned] = 1
	}
	return &s.result, s.firstErr
}

// MemPages returns every in-memory page: the unpartitioned ones, then each
// partition's.
func (r *Result) MemPages() []*pages.Page {
	n := len(r.Unpartitioned)
	for _, pgs := range r.InMemory {
		n += len(pgs)
	}
	out := append(make([]*pages.Page, 0, n), r.Unpartitioned...)
	for _, pgs := range r.InMemory {
		out = append(out, pgs...)
	}
	return out
}

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

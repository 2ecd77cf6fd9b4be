package core

import (
	"context"
	"sync"
	"time"

	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/uring"
)

// PartitionWork is one spilled partition queued for readback: the partition
// index and its spilled page slots (as recorded in a Result).
type PartitionWork struct {
	Part  int
	Slots []SpilledSlot
}

// PartitionScheduler keeps the block reads of upcoming spilled partitions in
// flight while the current partition is being processed (paper §5.1: "aiming
// to maintain a full I/O queue" — phase 2's half of the overlap story; the
// write path already overlaps). It owns one I/O ring, takes an ordered list
// of partition work items, and hands each consumer a streaming cursor.
//
// Prefetch is budget-aware: read and decode buffers for partitions no
// consumer has opened yet are reserved against the query budget first, and
// the scheduler simply stops looking ahead when the reservation fails —
// lookahead shrinks under memory pressure instead of OOMing. Demand reads
// (for partitions a consumer has opened) bypass the gate, so budget pressure
// can never deadlock a consumer.
//
// Concurrency: the ring is single-threaded by design, so consumers use a
// leader/follower protocol — whichever cursor needs pages and finds no
// leader pumping becomes the leader, submits and polls the ring outside the
// scheduler lock, and hands completions back under the lock; followers wait
// on a condition variable. All methods and cursors are safe for concurrent
// use by one consumer per partition.
type PartitionScheduler struct {
	ctx    context.Context
	arr    *nvmesim.Array
	clock  nvmesim.Clock
	budget *pages.Budget
	depth  int

	mu      sync.Mutex
	cond    *sync.Cond
	ring    *uring.Ring
	pumping bool
	closed  bool

	items    []*schedItem
	inflight int // block reads in flight or queued, all items
	pending  map[uint64]pendingRead
	nextUD   uint64
	scratch  []uring.Completion

	// Integrity state (SetIntegrity): the parity stripe directory covering
	// every work item's blocks and the lazily built repairer, whose reads go
	// to the dispatcher and under the fairness key BindIO received.
	stripes []*StripeGroup
	rp      *repairer
	sched   uring.Dispatcher
	query   uint64
}

type pendingRead struct {
	item  *schedItem
	group int
	// demand records the read's class at queue time; demand-class
	// completions feed the per-request latency counters, and retries
	// re-queue under the same class.
	demand bool
}

// schedItem is the scheduler-side state of one partition work item.
type schedItem struct {
	part      int
	groups    []blockGroup
	nextGroup int // next group to issue a read for
	inflightN int // this item's reads in flight
	issued    bool

	// Hand-out position: the consumer has had the pages of every group
	// before outGroup and the first outPage slots of groups[outGroup].
	// Groups before freed have had their read and decode buffers recycled
	// (ReleaseEarlier).
	outGroup int
	outPage  int
	freed    int

	opened   bool
	released bool
	reserved int64 // prefetch budget reservation, released at Open/Release
	err      error // sticky per-partition failure

	// counts is the partition's readback telemetry, handed to the consumer
	// by PartitionCursor.Counters: bytes read, retries, integrity work, and
	// the demand-read pair — completed reads that were queued demand-class
	// (a consumer had already opened the partition) and the sum of their
	// completion latencies. Unlike the cursor's stall time — worker-side
	// blocked wall time — that is the per-request latency of the
	// latency-critical reads themselves, the quantity the I/O scheduler's
	// demand-first dispatch exists to bound.
	counts metrics.Snapshot
}

// NewPartitionScheduler returns a scheduler over the given work items. ctx
// cancels blocking waits (nil = background); depth bounds in-flight block
// reads across the whole scheduler (<= 0 selects DefaultReadDepth); budget,
// when non-nil, gates prefetch lookahead (demand reads are never gated).
func NewPartitionScheduler(ctx context.Context, arr *nvmesim.Array, work []PartitionWork, depth int, budget *pages.Budget) *PartitionScheduler {
	if depth <= 0 {
		depth = DefaultReadDepth
	}
	s := &PartitionScheduler{
		ctx:    ctx,
		arr:    arr,
		clock:  arr.Clock(),
		budget: budget,
		depth:  depth,
	}
	s.cond = sync.NewCond(&s.mu)
	s.ring = uring.New(arr)
	if ctx != nil {
		s.ring.SetCancel(func() bool { return ctx.Err() != nil })
	}
	s.pending = make(map[uint64]pendingRead)
	s.items = make([]*schedItem, len(work))
	for i, w := range work {
		it := &schedItem{part: w.Part}
		byLoc := make(map[nvmesim.Loc]int, len(w.Slots))
		for _, sl := range w.Slots {
			gi, ok := byLoc[sl.Loc]
			if !ok {
				gi = len(it.groups)
				byLoc[sl.Loc] = gi
				it.groups = append(it.groups, blockGroup{loc: sl.Loc})
			}
			it.groups[gi].slots = append(it.groups[gi].slots, sl)
			it.groups[gi].size += int(sl.Len)
		}
		s.items[i] = it
	}
	return s
}

// BindIO routes the scheduler's readback I/O through the engine's shared
// dispatcher under the given query fairness key (nil = keep the private
// ring): prefetch reads carry ClassPrefetch and reads for opened items
// ClassDemand. A read keeps the class it was queued with; a prefetch still
// deferred when its item opens is bounded by the dispatcher's aging. Parity
// repair reads go the same way, as demand.
// Call before the first Open.
func (s *PartitionScheduler) BindIO(d uring.Dispatcher, query uint64) {
	s.ring.Bind(d, uring.ClassPrefetch, query)
	s.sched, s.query = d, query
}

// SetIntegrity arms parity reconstruction for every work item: stripes is
// the result's parity stripe directory (nil = frames still verify, but
// nothing can be rebuilt). Call before the first Open.
func (s *PartitionScheduler) SetIntegrity(stripes []*StripeGroup) {
	s.mu.Lock()
	s.stripes = stripes
	s.rp = nil // rebuilt lazily against the new directory
	s.mu.Unlock()
}

// repairerLocked returns the scheduler's repairer, building it on first use.
func (s *PartitionScheduler) repairerLocked() *repairer {
	if s.rp == nil {
		s.rp = newRepairer(s.ctx, s.arr, s.sched, s.query, s.stripes)
	}
	return s.rp
}

// Open hands out the streaming cursor for work item i. Each item must be
// opened by exactly one consumer; opening releases the item's prefetch
// reservation (its pages now stand in for the partition the consumer would
// otherwise have materialized), and its reads queued from now on are demand.
func (s *PartitionScheduler) Open(i int) *PartitionCursor {
	s.mu.Lock()
	it := s.items[i]
	it.opened = true
	if it.reserved > 0 {
		s.budget.Release(it.reserved)
		it.reserved = 0
	}
	pre := it.issued
	s.mu.Unlock()
	return &PartitionCursor{s: s, it: it, pre: pre}
}

// issueLocked tops up the ring: demand reads for opened partitions first
// (unconditionally, up to the per-consumer depth — an opened cursor must
// always be able to make progress), then prefetch for upcoming partitions in
// work order while the depth and the budget allow. An opened partition reads
// at most depth blocks ahead of the one its consumer is on, so a consumer
// that recycles what it has passed (ReleaseEarlier) owns at most depth+1.
func (s *PartitionScheduler) issueLocked() {
	for _, it := range s.items {
		for s.canIssueLocked(it) {
			s.queueGroupLocked(it)
		}
	}
	// preInflight counts prefetch reads in flight across all unopened items;
	// prefetch as a whole gets one consumer's worth of queue depth.
	preInflight := 0
	for _, it := range s.items {
		if !it.opened && !it.released {
			preInflight += it.inflightN
		}
	}
	for _, it := range s.items {
		if it.opened || it.released || it.err != nil {
			continue
		}
		for it.nextGroup < len(it.groups) && preInflight < s.depth {
			g := &it.groups[it.nextGroup]
			// A prefetched group costs its block read buffer plus its
			// decoded size.
			cost := int64(g.loc.Size()) + int64(g.size)
			if !s.budget.TryReserve(cost) {
				// Budget headroom gone: shrink the lookahead window rather
				// than abandoning overlap entirely. One unreserved group may
				// stay in flight — the same transient buffer footprint a
				// demand read imposes the moment the next partition opens —
				// so readback keeps running ahead of compute even when the
				// operator has eaten the whole budget.
				if preInflight > 0 {
					return
				}
				cost = 0
			}
			it.reserved += cost
			s.queueGroupLocked(it)
			preInflight++
		}
	}
}

// canIssueLocked reports whether item it, opened and live, may queue another
// block read: fewer than depth in flight, and the block at most depth ahead
// of the one its consumer is on.
func (s *PartitionScheduler) canIssueLocked(it *schedItem) bool {
	return it.opened && !it.released && it.err == nil && it.nextGroup < len(it.groups) &&
		it.inflightN < s.depth && it.nextGroup <= it.outGroup+s.depth
}

// queueGroupLocked queues the item's next block read on the ring: demand
// class when a consumer already opened the item, prefetch otherwise.
func (s *PartitionScheduler) queueGroupLocked(it *schedItem) {
	g := &it.groups[it.nextGroup]
	g.buf = pages.GetBuf(int(g.loc.Size()))
	s.nextUD++
	class := uring.ClassPrefetch
	if it.opened {
		class = uring.ClassDemand
	}
	s.ring.QueueReadClass(g.loc, g.buf, s.nextUD, class)
	s.pending[s.nextUD] = pendingRead{item: it, group: it.nextGroup, demand: class == uring.ClassDemand}
	it.nextGroup++
	it.inflightN++
	s.inflight++
	it.issued = true
}

// retryUnlocked runs on the leader outside the scheduler lock: transient
// failures with retry budget left are re-queued (same device — spilled data
// has one copy, so reads cannot fail over) after a capped backoff, and the
// remaining completions are returned for processing under the lock. Leader
// state (ring, pending, nextUD, group attempts) is only ever touched by the
// current leader; leadership transfer happens under the lock.
func (s *PartitionScheduler) retryUnlocked(comps []uring.Completion) ([]uring.Completion, []*schedItem) {
	out := comps[:0]
	var retried []*schedItem
	requeued := false
	for _, c := range comps {
		pr, ok := s.pending[c.UserData]
		if ok && c.Err != nil && nvmesim.IsTransient(c.Err) && pr.item.groups[pr.group].attempts+1 < maxReadAttempts {
			g := &pr.item.groups[pr.group]
			g.attempts++
			delete(s.pending, c.UserData)
			s.clock.Sleep(retryBackoff(g.attempts))
			s.nextUD++
			// Retries keep their class: a demand read a consumer is
			// still blocked on must not re-queue behind prefetch.
			class := uring.ClassPrefetch
			if pr.demand {
				class = uring.ClassDemand
			}
			s.ring.QueueReadClass(g.loc, g.buf, s.nextUD, class)
			s.pending[s.nextUD] = pr
			retried = append(retried, pr.item)
			requeued = true
			continue
		}
		out = append(out, c)
	}
	if requeued {
		s.ring.Submit()
	}
	return out, retried
}

// processLocked folds reaped completions into item state: a block that read
// and verified is ready for its consumer to decode, failures become sticky
// structured errors.
func (s *PartitionScheduler) processLocked(comps []uring.Completion, retried []*schedItem) {
	for _, it := range retried {
		it.counts[metrics.SpillRetries]++
	}
	for _, c := range comps {
		pr, ok := s.pending[c.UserData]
		if !ok {
			continue
		}
		delete(s.pending, c.UserData)
		it := pr.item
		it.inflightN--
		s.inflight--
		g := &it.groups[pr.group]
		g.done = true
		if c.Err == nil {
			it.counts[metrics.SpillReadBytes] += int64(c.N)
			if pr.demand {
				it.counts[metrics.DemandReads]++
				it.counts[metrics.DemandReadNanos] += int64(c.Latency)
			}
		}
		if it.released || it.err != nil {
			// Pages are dead on arrival; buffers recycle at Close. A read
			// failure still has to stick so a not-yet-failed consumer sees it.
			if c.Err != nil && it.err == nil {
				it.err = &QueryError{Op: "spill-read", Part: it.part, Device: c.Loc.Device(), Err: c.Err}
			}
			continue
		}
		// Verify before decode; a permanently failed read or a checksum
		// mismatch triggers parity reconstruction in place. The repair I/O
		// runs under the scheduler lock — it is the cold path, and followers
		// simply wait out the rare rebuild.
		payload, st, err := s.repairerLocked().validBlock(g.loc, g.buf, g.slots, it.part, c.Err)
		it.counts[metrics.SpillPagesVerified] += st.verified
		it.counts[metrics.SpillChecksumErrors] += st.checksumErrors
		it.counts[metrics.SpillReconstructions] += st.reconstructions
		if err != nil {
			it.err = err
		}
		g.payload = payload
	}
}

// recycleLocked returns to the recycler the read and decode buffers of the
// groups before end. No read into those groups may be in flight.
func (it *schedItem) recycleLocked(end int) {
	for ; it.freed < end; it.freed++ {
		g := &it.groups[it.freed]
		pages.PutBuf(g.buf)
		pages.PutBuf(g.owned)
		g.buf, g.payload, g.dec, g.owned = nil, nil, nil, nil
	}
}

// Close drains outstanding reads and recycles every remaining buffer and
// budget reservation. Consumers register it as a query-end cleanup so error
// paths and never-opened prefetch items cannot leak; it is idempotent and a
// normal run that released every cursor has nothing left to do here.
func (s *PartitionScheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for s.pumping {
		s.cond.Wait()
	}
	s.pumping = true // exclusive ring access for the final drain
	s.mu.Unlock()
	s.scratch = s.ring.WaitAll(s.scratch[:0])
	// If cancellation cut the drain short, reads may still be writing into
	// owned buffers — leak those to the GC instead of recycling them; the
	// query is being torn down anyway.
	aborted := s.ring.Outstanding() > 0
	if aborted {
		// Reads the dispatcher never issued will not complete now that the
		// query is cancelled; drop them so the shared scheduler's queues
		// (and its per-query fairness state) do not hold them forever.
		s.ring.CancelDeferred()
	}
	s.mu.Lock()
	s.pumping = false
	s.pending = nil
	for _, it := range s.items {
		if it.reserved > 0 {
			s.budget.Release(it.reserved)
			it.reserved = 0
		}
		it.released = true
		if !aborted {
			it.recycleLocked(len(it.groups))
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// pumpLocked makes the caller the leader for one round: top up the ring,
// submit, reap — waiting for at least one completion when block is set — and
// fold the completions in. It is entered and left with s.mu held and drops it
// around the ring calls; the caller has checked that no one else is pumping.
func (s *PartitionScheduler) pumpLocked(block bool) {
	s.pumping = true
	s.issueLocked()
	s.mu.Unlock()
	s.ring.Submit()
	comps := s.ring.Poll(s.scratch[:0], block)
	comps, retried := s.retryUnlocked(comps)
	s.mu.Lock()
	s.scratch = comps[:0]
	s.pumping = false
	s.processLocked(comps, retried)
	s.cond.Broadcast()
}

// PartitionCursor streams one spilled partition's pages back to a phase-2
// consumer: Next yields pages in spill order until (nil, nil), Release
// recycles the partition's buffers once nothing references its tuples
// anymore (ReleaseEarlier, those of the pages already passed), and Counters
// hands the consumer the partition's readback telemetry once it is consumed.
type PartitionCursor struct {
	s       *PartitionScheduler
	it      *schedItem
	pre     bool
	stallNs int64
}

// Next returns the partition's next page, or (nil, nil) once every page has
// been handed out. Pages come in spill (slot) order, whatever order their
// blocks complete in. A block is decoded once, outside the scheduler lock,
// when the consumer reaches its first page, and each page is a view into the
// decoded block; it stays valid until Release, or until ReleaseEarlier after
// a later Next. While the next page's block is missing, Next joins the
// leader/follower pump: the leader submits and polls the shared ring with the
// scheduler lock dropped; followers wait for its broadcast.
func (c *PartitionCursor) Next() (*pages.Page, error) {
	start := time.Now()
	defer func() { c.stallNs += int64(time.Since(start)) }()
	s, it := c.s, c.it
	s.mu.Lock()
	for {
		if it.err != nil {
			err := it.err
			s.mu.Unlock()
			return nil, err
		}
		if s.ctx != nil && s.ctx.Err() != nil {
			it.err = WrapQueryError("spill-read", s.ctx.Err())
			continue
		}
		if s.closed {
			it.err = &QueryError{Op: "spill-read", Part: it.part, Device: -1, Err: context.Canceled}
			continue
		}
		if it.outGroup < len(it.groups) && it.outPage == len(it.groups[it.outGroup].slots) {
			it.outGroup++
			it.outPage = 0
			continue
		}
		if it.outGroup == len(it.groups) {
			s.mu.Unlock()
			return nil, nil
		}
		if g := &it.groups[it.outGroup]; g.done {
			if !s.pumping && s.canIssueLocked(it) {
				// Keep the read-ahead topped up without waiting.
				s.pumpLocked(false)
				continue
			}
			if it.outPage == 0 {
				// The consumer reached the block: decode all of it once.
				payload, scheme := g.payload, g.slots[0].Scheme
				s.mu.Unlock()
				dec, owned, err := decodeBlock(payload, scheme, g.size)
				s.mu.Lock()
				if err != nil {
					it.err = spillReadError(g.loc, it.part, err)
					continue
				}
				g.dec, g.owned = dec, owned
			}
			slot, dec := g.slots[it.outPage], g.dec
			it.outPage++
			s.mu.Unlock()
			p, err := loadSlot(dec, slot)
			if err != nil {
				s.mu.Lock()
				it.err = spillReadError(g.loc, it.part, err)
				continue
			}
			return p, nil
		}
		if s.pumping {
			s.cond.Wait()
			continue
		}
		s.pumpLocked(true)
	}
}

// ReleaseEarlier declares every page handed out before the latest Next dead
// and recycles the read and decode buffers of the blocks only those pages
// used. A consumer that copies out what it keeps (the external sort's merge)
// calls it after every Next and so owns at most depth+1 blocks of the
// partition, one of them decoded; one that only calls Release owns all of
// it.
func (c *PartitionCursor) ReleaseEarlier() {
	s, it := c.s, c.it
	s.mu.Lock()
	if !it.released {
		it.recycleLocked(it.outGroup)
	}
	s.mu.Unlock()
}

// Release recycles the partition's buffers and releases any leftover
// prefetch reservation. Call it only once nothing references the
// partition's tuples anymore. Buffers still owned by in-flight reads stay
// out of the recycler until the scheduler's Close drains them.
func (c *PartitionCursor) Release() {
	s, it := c.s, c.it
	s.mu.Lock()
	if !it.released {
		it.released = true
		if it.reserved > 0 {
			s.budget.Release(it.reserved)
			it.reserved = 0
		}
		if it.inflightN == 0 {
			it.recycleLocked(len(it.groups))
		}
	}
	s.mu.Unlock()
}

// Counters returns the partition's readback counters: bytes read, retries,
// demand reads and their latency, integrity work, the wall time this
// cursor's consumer spent inside Next, and whether readback had started
// before Open. Call it once the consumer is done pulling.
func (c *PartitionCursor) Counters() metrics.Snapshot {
	c.s.mu.Lock()
	n := c.it.counts
	c.s.mu.Unlock()
	n[metrics.SpillStallNanos] = c.stallNs
	if c.pre {
		n[metrics.PrefetchedPartitions] = 1
	}
	return n
}

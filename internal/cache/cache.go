// Package cache implements the governor-integrated query-result reuse
// cache (DESIGN.md §14).
//
// The cache stores finished query results keyed by (plan fingerprint,
// catalog generation) and serves repeated queries without re-executing or
// re-entering the admission queue. It is two-tier, applying the paper's
// central trick — materialization to the NVMe array is cheap enough that
// memory pressure should shed bytes, not work — to the cache itself:
//
//   - The hot tier holds decoded batches in memory, accounted against a
//     reservation rented from the admission governor's idle headroom.
//     The cache is a strictly lower-priority tenant: reservations are
//     refused while queries queue, and the governor's pressure callback
//     (Shrink) reclaims reservation the moment an admission falls short,
//     so cached results can never starve live queries.
//   - Entries evicted from the hot tier are demoted, not dropped: rows
//     are encoded in the engine's RowCodec tuple format and written as one
//     run on the operators' spill path (core.Buffer.SpillRun), under a
//     per-entry lease — pages, self-regulating compression, checksummed
//     frames, parity, retries and failover, through the shared I/O
//     scheduler. A later hit reads the run back through a readback cursor
//     (core.PartitionCursor) and the arena decode path — typically still
//     far cheaper than recomputing.
//
// Admission is cost-based: a result is cached only when its measured
// compute time exceeds the estimated cost of restoring it from NVMe, so
// the cache never spends memory making cheap queries marginally cheaper.
// Eviction order (both demotion from memory and final drop from disk) is
// by benefit density: cost × (hits+1) / size, lowest first.
package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
)

// Key identifies one cacheable result: the canonical plan fingerprint
// (exec.PlanFingerprint) plus the catalog generation it ran against.
// RegisterTable bumps the generation, so results computed over a replaced
// table can never be served again.
type Key struct {
	Plan uint64
	Gen  uint64
}

// Tier reports which tier served a hit.
type Tier int

const (
	TierNone   Tier = iota // miss
	TierMemory             // hot tier
	TierNVMe               // demoted entry restored from the spill array
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierNVMe:
		return "nvme"
	default:
		return "none"
	}
}

// Config configures a result cache.
type Config struct {
	// Capacity bounds the hot tier in bytes (estimated batch footprint).
	Capacity int64
	// Gov, when non-nil, is the admission governor hot-tier memory is
	// rented from. The cache registers itself as the governor's pressure
	// callback.
	Gov *pages.Governor
	// Spill is the engine's spill template demoted entries are written
	// through: the array, its shared I/O scheduler (Sched; demotion writes
	// are spill-write class, restores demand reads, both under fairness key
	// Query), the parity stripe width and compression. Each demotion adds a
	// lease of its own. nil makes the cache memory-only: hot-tier evictions
	// drop.
	Spill *core.SpillConfig
}

const (
	// diskFactor bounds the demoted tier at diskFactor × Capacity raw
	// (pre-compression) bytes.
	diskFactor = 4
	// restoreOverhead is the fixed per-restore latency estimate added on
	// top of size/bandwidth in the cost-based admission test.
	restoreOverhead = 500 * time.Microsecond
)

// entry is one cached result. Exactly one of batch (hot) and lease
// (demoted) is set.
type entry struct {
	key    Key
	schema *data.Schema
	size   int64 // estimated in-memory footprint of the decoded batch
	cost   time.Duration
	hits   int64

	batch *data.Batch // hot tier

	// Demoted representation: one run on the spill array under the entry's
	// own lease and the parity stripes that can rebuild its blocks.
	lease   *nvmesim.Lease
	run     core.PartitionWork
	stripes []*core.StripeGroup
	rows    int
}

// score is the eviction benefit density: time saved per byte retained,
// weighted by observed popularity. Lowest goes first.
func (e *entry) score() float64 {
	return float64(e.cost) * float64(e.hits+1) / float64(e.size+1)
}

// Cache is the result-reuse cache. A single mutex guards the maps and the
// accounting; hit/miss counters are atomics so Stats stays cheap.
//
// Known tradeoff: demotion and restore perform their I/O while holding
// c.mu, so a slow restore briefly serializes concurrent Get/Put/Shrink
// calls behind it. Results are single batches whose I/O is short on the
// simulated array (hundreds of microseconds), and accepting the stall
// keeps the tier transition atomic — no entry-level state machine for
// "demoting"/"restoring" states. If results ever grow large enough for
// this to show up in admission-pressure latency, write the run unlocked
// and reacquire to commit.
type Cache struct {
	cfg Config

	mu       sync.Mutex
	entries  map[Key]*entry
	hotBytes int64 // sum of hot entries' size
	reserved int64 // governor reservation currently held (== hotBytes when governed)
	rawDisk  int64 // sum of demoted entries' raw (uncompressed) size

	hits         atomic.Int64
	hitsMemory   atomic.Int64
	hitsNVMe     atomic.Int64
	misses       atomic.Int64
	puts         atomic.Int64
	rejects      atomic.Int64 // cost-based admission refusals
	demotions    atomic.Int64
	restores     atomic.Int64
	drops        atomic.Int64
	invalidated  atomic.Int64
	shrinks      atomic.Int64
	restoreBytes atomic.Int64 // raw bytes decoded from the array
}

// New returns a result cache. When cfg.Gov is non-nil the cache installs
// itself as the governor's pressure callback.
func New(cfg Config) *Cache {
	c := &Cache{cfg: cfg, entries: make(map[Key]*entry)}
	if cfg.Gov != nil {
		cfg.Gov.SetPressure(func(need int64) { c.Shrink(need) })
	}
	return c
}

// Get looks up a cached result. On a hit it returns a defensive copy (the
// caller owns and may mutate it) and the tier that served it. A demoted
// entry is restored from the array and, when memory allows, promoted back
// to the hot tier.
func (c *Cache) Get(key Key) (*data.Batch, Tier, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, TierNone, nil
	}
	e.hits++
	if e.batch != nil {
		out := copyBatch(e.batch)
		c.mu.Unlock()
		c.hits.Add(1)
		c.hitsMemory.Add(1)
		return out, TierMemory, nil
	}
	b, err := c.restoreLocked(e)
	if err != nil {
		// The demoted copy is unreadable (device loss, corruption beyond
		// the array's own repair). Drop the entry; the caller recomputes.
		c.dropLocked(e)
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, TierNone, err
	}
	c.restores.Add(1)
	c.restoreBytes.Add(e.size)
	c.promoteLocked(e, b)
	out := copyBatch(b)
	c.mu.Unlock()
	c.hits.Add(1)
	c.hitsNVMe.Add(1)
	return out, TierNVMe, nil
}

// Put offers a computed result to the cache. cost is the measured compute
// (execution) time. The entry is admitted only when recomputing is
// estimated to be more expensive than restoring from NVMe; returns
// whether the result was retained (in either tier).
func (c *Cache) Put(key Key, b *data.Batch, cost time.Duration) bool {
	if b == nil || c.cfg.Capacity <= 0 {
		return false
	}
	size := batchFootprint(b)
	if size > c.cfg.Capacity || cost < c.restoreEstimate(size) {
		c.rejects.Add(1)
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		// Refresh an existing entry's cost; the result is identical by
		// construction (same plan, same catalog generation).
		old.cost = cost
		return true
	}
	e := &entry{key: key, schema: b.Schema, size: size, cost: cost, batch: copyBatch(b)}
	if !c.makeRoomLocked(e.size) || !c.rentLocked(e.size) {
		// No memory-tier room (capacity or governor refusal): demote the
		// new entry straight to the array rather than losing it.
		if err := c.demoteLocked(e); err != nil {
			c.rejects.Add(1)
			return false
		}
		c.entries[key] = e
		c.puts.Add(1)
		return true
	}
	c.hotBytes += e.size
	c.entries[key] = e
	c.puts.Add(1)
	return true
}

// restoreEstimate is the cost-based admission bar: how long restoring
// size bytes from the array is expected to take.
func (c *Cache) restoreEstimate(size int64) time.Duration {
	est := restoreOverhead
	if c.cfg.Spill != nil {
		if bw := c.cfg.Spill.Array.MaxReadBandwidth(); bw > 0 {
			est += time.Duration(float64(size) / bw * float64(time.Second))
		}
	}
	return est
}

// rentLocked acquires bytes of governor reservation (no-op when
// ungoverned). Caller holds c.mu; the governor lock nests inside.
func (c *Cache) rentLocked(bytes int64) bool {
	if c.cfg.Gov == nil {
		return true
	}
	if !c.cfg.Gov.ReserveCache(bytes) {
		return false
	}
	c.reserved += bytes
	return true
}

// returnLocked gives bytes of reservation back to the governor.
func (c *Cache) returnLocked(bytes int64) {
	if c.cfg.Gov == nil {
		return
	}
	c.reserved -= bytes
	c.cfg.Gov.ReleaseCache(bytes)
}

// makeRoomLocked demotes lowest-score hot entries until size more bytes
// fit under Capacity. Reports whether the hot tier can take size bytes.
func (c *Cache) makeRoomLocked(size int64) bool {
	if size > c.cfg.Capacity {
		return false
	}
	for c.hotBytes+size > c.cfg.Capacity {
		victim := c.lowestScoreLocked(true)
		if victim == nil {
			return false
		}
		c.evictHotLocked(victim)
	}
	return true
}

// lowestScoreLocked returns the lowest-score entry in the requested tier
// (hot=true: memory tier; hot=false: demoted tier), or nil when empty.
func (c *Cache) lowestScoreLocked(hot bool) *entry {
	var victim *entry
	for _, e := range c.entries {
		if (e.batch != nil) != hot {
			continue
		}
		if victim == nil || e.score() < victim.score() {
			victim = e
		}
	}
	return victim
}

// evictHotLocked pushes a hot entry out of the memory tier: demoted to
// the array when one is configured, dropped otherwise. The freed bytes
// are returned to the governor either way.
func (c *Cache) evictHotLocked(e *entry) {
	size := e.size
	if err := c.demoteLocked(e); err != nil {
		// Demotion failed (no array, demoted tier full, or a write error):
		// drop the entry instead. dropLocked sees e still in the hot tier
		// (e.batch != nil) and adjusts hotBytes and the reservation itself,
		// so the success-path accounting below must not run again.
		c.dropLocked(e)
		return
	}
	c.hotBytes -= size
	c.returnLocked(size)
}

// demoteLocked writes e's rows to the spill array as one run under a fresh
// per-entry lease: RowCodec tuples through a core.Buffer over the cache's
// spill template. Pages are 64 KiB, smaller when the whole result fits in
// less — a small result is one small block, not a padded 64 KiB one to
// write and read back — and larger when one row needs more. On success the
// in-memory batch is released.
func (c *Cache) demoteLocked(e *entry) error {
	if c.cfg.Spill == nil {
		return fmt.Errorf("cache: no spill array configured")
	}
	for c.rawDisk+e.size > diskFactor*c.cfg.Capacity {
		// Demoted tier full: drop its weakest entries first; if e itself
		// is the weakest, refuse and let the caller drop it.
		victim := c.lowestScoreLocked(false)
		if victim == nil || victim.score() >= e.score() {
			return fmt.Errorf("cache: demoted tier full")
		}
		c.dropLocked(victim)
	}
	b := e.batch
	rc := data.NewRowCodec(b.Schema.Types())
	need, pageSize := 0, 0
	for i := 0; i < b.Rows(); i++ {
		n := pages.SizeFor(rc.Size(b, b.Row(i)))
		need += n
		pageSize = max(pageSize, n)
	}
	pageSize = max(pageSize, min(need, pages.DefaultPageSize))
	sc := *c.cfg.Spill
	sc.Lease = sc.Array.NewLease()
	shared := core.NewShared(core.Config{PageSize: pageSize, Spill: &sc})
	buf := shared.NewBuffer()
	var tuple []byte
	// The first write error, SpillRun's or Finish's, comes back from
	// Finalize. Finish drains the writes before the tier change commits
	// (under c.mu), so a restore can never race an unfinished write.
	_ = buf.SpillRun(b.Rows(), func(i int) []byte {
		r := b.Row(i)
		if n := rc.Size(b, r); cap(tuple) < n {
			tuple = make([]byte, n)
		} else {
			tuple = tuple[:n]
		}
		rc.Encode(tuple, b, r)
		return tuple
	})
	_ = buf.Finish()
	res, err := shared.Finalize()
	if err != nil {
		sc.Lease.Free()
		return err
	}
	e.lease, e.run, e.stripes, e.rows = sc.Lease, res.Runs[0], res.Stripes, b.Rows()
	e.batch = nil
	c.rawDisk += e.size
	c.demotions.Add(1)
	return nil
}

// restoreLocked reads a demoted entry back through a readback cursor over
// its run — frame verification, parity reconstruction, retries and the
// shared I/O scheduler included — and decodes the tuples in spill order
// through the arena-interning RowCodec path (string bytes are interned
// once; no per-field copies).
func (c *Cache) restoreLocked(e *entry) (*data.Batch, error) {
	sp := c.cfg.Spill
	sched := core.NewPartitionScheduler(nil, sp.Array, []core.PartitionWork{e.run}, 0, nil)
	defer sched.Close()
	sched.BindIO(sp.Sched, sp.Query)
	sched.SetIntegrity(e.stripes)
	cur := sched.Open(0)
	defer cur.Release()
	rc := data.NewRowCodec(e.schema.Types())
	out := data.NewBatch(e.schema, e.rows)
	var arena data.ByteArena
	for {
		p, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if p == nil {
			break
		}
		// Every tuple is copied out, so the pages passed are dead.
		cur.ReleaseEarlier()
		for i := 0; i < p.Tuples(); i++ {
			rc.AppendToArena(out, p.Tuple(i), &arena)
		}
	}
	if out.Len() != e.rows {
		return nil, fmt.Errorf("cache: restored %d rows, expected %d", out.Len(), e.rows)
	}
	return out, nil
}

// promoteLocked moves a just-restored entry back into the hot tier when
// capacity and the governor allow; otherwise the entry stays demoted and
// the restored batch serves only this hit.
func (c *Cache) promoteLocked(e *entry, b *data.Batch) {
	if c.hotBytes+e.size > c.cfg.Capacity || !c.rentLocked(e.size) {
		return
	}
	e.batch = b
	e.lease.Free()
	e.lease, e.run, e.stripes = nil, core.PartitionWork{}, nil
	c.rawDisk -= e.size
	c.hotBytes += e.size
}

// dropLocked removes an entry entirely, freeing its lease (demoted) or
// hot bytes + reservation (hot).
func (c *Cache) dropLocked(e *entry) {
	if e.batch != nil {
		c.hotBytes -= e.size
		c.returnLocked(e.size)
	} else {
		e.lease.Free()
		c.rawDisk -= e.size
	}
	delete(c.entries, e.key)
	c.drops.Add(1)
}

// Shrink surrenders at least need bytes of governor reservation by
// demoting lowest-score hot entries (the governor's pressure callback;
// must not be called with the governor's lock held). Returns the bytes
// actually released.
func (c *Cache) Shrink(need int64) int64 {
	c.shrinks.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	var freed int64
	for freed < need {
		victim := c.lowestScoreLocked(true)
		if victim == nil {
			break
		}
		freed += victim.size
		c.evictHotLocked(victim)
	}
	return freed
}

// RemoveStale drops every entry whose catalog generation is older than
// cur (called by RegisterTable after bumping the generation).
func (c *Cache) RemoveStale(cur uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.key.Gen < cur {
			c.dropLocked(e)
			c.invalidated.Add(1)
		}
	}
}

// Clear drops every entry, returning all reservation to the governor and
// freeing every demotion lease. A cleared cache serves true cold runs.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		c.dropLocked(e)
	}
	if c.reserved != 0 {
		panic("cache: reservation not drained by Clear")
	}
}

// DemoteAll forces every hot entry to the array (bench/test hook for
// measuring warm-NVMe hits). Returns how many entries were demoted.
func (c *Cache) DemoteAll() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int
	for {
		victim := c.lowestScoreLocked(true)
		if victim == nil {
			return n
		}
		c.evictHotLocked(victim)
		n++
	}
}

// Stats is a snapshot of cache state and counters.
type Stats struct {
	HotEntries  int
	HotBytes    int64
	DiskEntries int
	DiskBytes   int64 // raw (uncompressed) footprint of demoted entries
	Reserved    int64 // governor reservation currently held

	Hits         int64
	HitsMemory   int64
	HitsNVMe     int64
	Misses       int64
	Puts         int64
	Rejects      int64 // cost-based admission refusals
	Demotions    int64
	Restores     int64
	RestoreBytes int64
	Drops        int64
	Invalidated  int64
	Shrinks      int64
}

// Stats returns a snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	s := Stats{
		HotBytes:  c.hotBytes,
		DiskBytes: c.rawDisk,
		Reserved:  c.reserved,
	}
	for _, e := range c.entries {
		if e.batch != nil {
			s.HotEntries++
		} else {
			s.DiskEntries++
		}
	}
	c.mu.Unlock()
	s.Hits = c.hits.Load()
	s.HitsMemory = c.hitsMemory.Load()
	s.HitsNVMe = c.hitsNVMe.Load()
	s.Misses = c.misses.Load()
	s.Puts = c.puts.Load()
	s.Rejects = c.rejects.Load()
	s.Demotions = c.demotions.Load()
	s.Restores = c.restores.Load()
	s.RestoreBytes = c.restoreBytes.Load()
	s.Drops = c.drops.Load()
	s.Invalidated = c.invalidated.Load()
	s.Shrinks = c.shrinks.Load()
	return s
}

// copyBatch deep-copies the live rows of b into a fresh flat batch.
func copyBatch(b *data.Batch) *data.Batch {
	out := data.NewBatch(b.Schema, b.Rows())
	for i := 0; i < b.Rows(); i++ {
		out.AppendRowFrom(b, b.Row(i))
	}
	return out
}

// batchFootprint estimates the in-memory size of a batch's live rows: 8
// bytes per fixed-width cell, string header + bytes per string cell.
func batchFootprint(b *data.Batch) int64 {
	var n int64
	rows := int64(b.Rows())
	for i := range b.Cols {
		c := &b.Cols[i]
		if c.Type == data.String {
			for j := 0; j < b.Rows(); j++ {
				n += 16 + int64(len(c.S[b.Row(j)]))
			}
		} else {
			n += 8 * rows
		}
		if c.Null != nil {
			n += rows
		}
	}
	return n
}

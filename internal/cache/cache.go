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
//     are serialized through the engine's RowCodec tuple format,
//     compressed with a self-regulating codec (the same unified scale the
//     spill path uses, fed with measured write latencies), wrapped in
//     checksummed spill page frames, and written to the spill array under
//     a per-entry lease. A later hit restores them through the zero-copy
//     arena decode path — typically still far cheaper than recomputing.
//
// Admission is cost-based: a result is cached only when its measured
// compute time exceeds the estimated cost of restoring it from NVMe, so
// the cache never spends memory making cheap queries marginally cheaper.
// Eviction order (both demotion from memory and final drop from disk) is
// by benefit density: cost × (hits+1) / size, lowest first.
package cache

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/uring"
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
	// DiskFactor bounds the demoted tier at DiskFactor × Capacity raw
	// (pre-compression) bytes. 0 defaults to 4.
	DiskFactor int64
	// Array is the spill array demoted entries are written to. nil makes
	// the cache memory-only: hot-tier evictions drop.
	Array *nvmesim.Array
	// Gov, when non-nil, is the admission governor hot-tier memory is
	// rented from. The cache registers itself as the governor's pressure
	// callback.
	Gov *pages.Governor
	// RestoreOverhead is the fixed per-restore latency estimate added on
	// top of size/bandwidth in the cost-based admission test. 0 defaults
	// to 500µs.
	RestoreOverhead time.Duration
	// IO, when non-nil, routes demotion writes through the engine's shared
	// I/O scheduler as background-class requests, so cache maintenance
	// yields to running queries' demand reads and spill writes. Restores
	// stay synchronous: a restore is on some query's critical path already
	// and its cost model assumes device bandwidth, not queueing.
	IO uring.Dispatcher
}

// chunk is one framed, compressed piece of a demoted entry on the array.
type chunk struct {
	dev      int
	off      int64
	frameLen int // framed length on device (FrameSize + compressed payload)
	rawLen   int // uncompressed payload length
	seq      uint32
	codec    codec.ID
}

// entry is one cached result. Exactly one of batch (hot) and chunks
// (demoted) is set.
type entry struct {
	key    Key
	schema *data.Schema
	size   int64 // estimated in-memory footprint of the decoded batch
	cost   time.Duration
	hits   int64

	batch *data.Batch // hot tier

	// Demoted representation.
	lease  *nvmesim.Lease
	chunks []chunk
	rows   int
}

// score is the eviction benefit density: time saved per byte retained,
// weighted by observed popularity. Lowest goes first.
func (e *entry) score() float64 {
	return float64(e.cost) * float64(e.hits+1) / float64(e.size+1)
}

// Cache is the result-reuse cache. A single mutex guards the maps, the
// accounting, and the (deliberately shared, not-thread-safe) compression
// regulator; hit/miss counters are atomics so Stats stays cheap.
//
// Known tradeoff: demotion and restore perform their chunk IO while
// holding c.mu, so a slow restore briefly serializes concurrent
// Get/Put/Shrink calls behind it. Results are single batches whose
// chunked IO is short on the simulated array (hundreds of microseconds),
// and accepting the stall keeps the tier transition atomic — no
// entry-level state machine for "demoting"/"restoring" states. If results
// ever grow large enough for this to show up in admission-pressure
// latency, stage the frames under the lock, do the IO unlocked, and
// reacquire to commit.
type Cache struct {
	cfg Config

	mu       sync.Mutex
	entries  map[Key]*entry
	hotBytes int64 // sum of hot entries' size
	reserved int64 // governor reservation currently held (== hotBytes when governed)
	rawDisk  int64 // sum of demoted entries' raw (uncompressed) size
	reg      *core.Regulator
	seq      uint32
	nextDev  int

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
	if cfg.DiskFactor <= 0 {
		cfg.DiskFactor = 4
	}
	if cfg.RestoreOverhead <= 0 {
		cfg.RestoreOverhead = 500 * time.Microsecond
	}
	c := &Cache{
		cfg:     cfg,
		entries: make(map[Key]*entry),
		reg:     core.NewRegulator(8),
		// Start the frame sequence space high so cache frames are
		// trivially distinguishable from query spill frames in dumps.
		seq: 1 << 30,
	}
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
	est := c.cfg.RestoreOverhead
	if c.cfg.Array != nil {
		if bw := c.cfg.Array.MaxReadBandwidth(); bw > 0 {
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

// demoteLocked serializes e's batch into uvarint-length-prefixed RowCodec
// tuples, compresses each chunk with the self-regulating codec, frames it
// with a checksum, and writes it to the spill array under a fresh
// per-entry lease. On success the in-memory batch is released.
func (c *Cache) demoteLocked(e *entry) error {
	if c.cfg.Array == nil {
		return fmt.Errorf("cache: no spill array configured")
	}
	if c.rawDisk+e.size > c.cfg.DiskFactor*c.cfg.Capacity {
		// Demoted tier full: drop its weakest entries first; if e itself
		// is the weakest, refuse and let the caller drop it.
		for c.rawDisk+e.size > c.cfg.DiskFactor*c.cfg.Capacity {
			victim := c.lowestScoreLocked(false)
			if victim == nil || victim.score() >= e.score() {
				return fmt.Errorf("cache: demoted tier full")
			}
			c.dropLocked(victim)
		}
	}
	b := e.batch
	rc := data.NewRowCodec(b.Schema.Types())
	lease := c.cfg.Array.NewLease()
	// Demotion writes go through a background-class ring when the engine
	// has a shared I/O scheduler: cache maintenance fills idle device
	// headroom but never crowds out query traffic. The ring drains before
	// demoteLocked returns (under c.mu, like the rest of the tier
	// transition), so a restore can never race an unfinished write.
	var ring *uring.Ring
	if c.cfg.IO != nil {
		ring = uring.New(c.cfg.Array)
		ring.SetLease(lease)
		ring.Bind(c.cfg.IO, uring.ClassBackground, 0)
	}
	var chunks []chunk
	const chunkMax = 256 << 10
	var buf []byte
	var lenb [binary.MaxVarintLen64]byte
	// flush compresses, frames, and writes the buffered tuples as one
	// chunk. restoreLocked decodes each chunk's tuple stream independently,
	// so chunks may only ever split on tuple boundaries.
	flush := func() error {
		raw := buf
		comp, id := c.reg.CompressPage(raw)
		c.seq++
		seq := c.seq
		frame := pages.AppendFrame(nil, -1, seq, comp)
		dev := c.nextDev % c.cfg.Array.Devices()
		c.nextDev++
		var at int64
		if ring != nil {
			loc, err := ring.QueueWriteDev(dev, frame, uint64(seq))
			if err != nil {
				return err
			}
			at = loc.Offset()
		} else {
			var err error
			at, err = c.cfg.Array.AllocSpillLease(dev, len(frame), lease)
			if err != nil {
				return err
			}
			start := time.Now()
			if _, err := c.cfg.Array.Write(dev, at, frame); err != nil {
				return err
			}
			// Feed the measured write back to the regulator so the codec
			// choice genuinely adapts to the array's current speed.
			c.reg.ObserveIO(uring.Completion{N: len(frame), Latency: time.Since(start)}, 1)
		}
		chunks = append(chunks, chunk{
			dev: dev, off: at, frameLen: len(frame), rawLen: len(raw),
			seq: seq, codec: id,
		})
		return nil
	}
	// abort quiesces the demotion ring (if any) and frees the lease after
	// a failed demotion, leaving the entry hot for the caller to drop.
	abort := func() {
		if ring != nil {
			ring.CancelDeferred()
			ring.WaitAll(nil)
		}
		lease.Free()
	}
	// Serialize all live rows — uvarint length prefix, then the tuple —
	// flushing a chunk whenever the next whole tuple would overflow it.
	for i := 0; i < b.Rows(); i++ {
		r := b.Row(i)
		sz := rc.Size(b, r)
		n := binary.PutUvarint(lenb[:], uint64(sz))
		if len(buf) > 0 && len(buf)+n+sz > chunkMax {
			if err := flush(); err != nil {
				abort()
				return err
			}
			buf = buf[:0]
		}
		buf = append(buf, lenb[:n]...)
		off := len(buf)
		buf = append(buf, make([]byte, sz)...)
		rc.Encode(buf[off:off+sz], b, r)
	}
	// Final flush; an empty batch still writes one empty chunk so the
	// entry round-trips through the same read path.
	if err := flush(); err != nil {
		abort()
		return err
	}
	if ring != nil {
		// Drain the background writes before committing the tier change.
		// Completion latency includes the scheduler's queueing delay, which
		// is exactly what the regulator should adapt to.
		for _, comp := range ring.WaitAll(nil) {
			if comp.Err != nil {
				abort()
				return comp.Err
			}
			c.reg.ObserveIO(comp, 1)
		}
		if ring.Outstanding() > 0 {
			abort()
			return fmt.Errorf("cache: demotion writes did not drain")
		}
	}
	e.lease, e.chunks, e.rows = lease, chunks, b.Rows()
	e.batch = nil
	c.rawDisk += e.size
	c.demotions.Add(1)
	return nil
}

// restoreLocked reads a demoted entry back: read each chunk, verify its
// frame, decompress, and decode the tuples through the arena-interning
// RowCodec path (string bytes are interned once; no per-field copies).
func (c *Cache) restoreLocked(e *entry) (*data.Batch, error) {
	rc := data.NewRowCodec(e.schema.Types())
	out := data.NewBatch(e.schema, e.rows)
	var arena data.ByteArena
	buf := make([]byte, 0, 256<<10+pages.FrameSize)
	for _, ch := range e.chunks {
		if cap(buf) < ch.frameLen {
			buf = make([]byte, ch.frameLen)
		}
		buf = buf[:ch.frameLen]
		if _, _, err := c.cfg.Array.Read(ch.dev, ch.off, buf); err != nil {
			return nil, err
		}
		payload, err := pages.VerifyFrame(buf, -1, ch.seq)
		if err != nil {
			return nil, err
		}
		raw := payload
		if ch.codec != codec.None {
			raw, err = codec.ByID(ch.codec).Decompress(make([]byte, 0, ch.rawLen), payload)
			if err != nil {
				return nil, err
			}
		}
		for len(raw) > 0 {
			sz, n := binary.Uvarint(raw)
			if n <= 0 || int(sz) > len(raw)-n {
				return nil, fmt.Errorf("cache: corrupt tuple length in restored chunk")
			}
			rc.AppendToArena(out, raw[n:n+int(sz)], &arena)
			raw = raw[n+int(sz):]
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
	e.lease, e.chunks = nil, nil
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

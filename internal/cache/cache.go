// Package cache is a memory-only map of finished query results, evicted by
// benefit density.
//
// The engine does not call it: the query-result cache it once backed was
// removed (DESIGN.md §14). It remains only for the performance ledger's
// cache.put_us and cache.get_hot_us kernels in benchmark/kernels.go, and is
// to be deleted together with them.
//
// Admission is cost-based: a result is kept only when its measured compute
// time exceeds minCost, so the cache never spends memory making cheap
// queries marginally cheaper. Eviction drops the entry with the lowest
// benefit density, cost × (hits+1) / size, first.
package cache

import (
	"sync"
	"time"

	"github.com/spilly-db/spilly/internal/data"
)

// Key identifies one cached result.
type Key struct {
	Plan uint64
}

// Config configures a result cache.
type Config struct {
	// Capacity bounds the cache in bytes (estimated batch footprint).
	Capacity int64
}

// minCost is the cost-based admission bar: a result that took less than this
// to compute is not worth the memory.
const minCost = 500 * time.Microsecond

// entry is one cached result.
type entry struct {
	key   Key
	size  int64 // estimated in-memory footprint of the batch
	cost  time.Duration
	hits  int64
	batch *data.Batch
}

// score is the eviction benefit density: time saved per byte retained,
// weighted by observed popularity. Lowest goes first.
func (e *entry) score() float64 {
	return float64(e.cost) * float64(e.hits+1) / float64(e.size+1)
}

// Cache is the result cache; one mutex guards the map and the accounting.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	entries map[Key]*entry
	bytes   int64 // sum of entries' size
}

// New returns a result cache.
func New(cfg Config) *Cache {
	return &Cache{cfg: cfg, entries: make(map[Key]*entry)}
}

// Get looks up a cached result. On a hit it returns a defensive copy (the
// caller owns and may mutate it) and true. A memory-only cache cannot fail
// a lookup: the error is always nil.
func (c *Cache) Get(key Key) (*data.Batch, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false, nil
	}
	e.hits++
	return copyBatch(e.batch), true, nil
}

// Put offers a computed result to the cache. cost is the measured compute
// time. Returns whether the result was retained: it is refused when it is
// larger than the whole cache or cheaper to recompute than minCost.
func (c *Cache) Put(key Key, b *data.Batch, cost time.Duration) bool {
	if b == nil || c.cfg.Capacity <= 0 {
		return false
	}
	size := batchFootprint(b)
	if size > c.cfg.Capacity || cost < minCost {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		// Refresh an existing entry's cost; the result is identical by
		// construction (same key).
		old.cost = cost
		return true
	}
	for c.bytes+size > c.cfg.Capacity {
		c.dropLocked(c.lowestScoreLocked())
	}
	c.entries[key] = &entry{key: key, size: size, cost: cost, batch: copyBatch(b)}
	c.bytes += size
	return true
}

// lowestScoreLocked returns the entry with the lowest score. The cache is
// not empty: the caller only asks while the held bytes exceed Capacity.
func (c *Cache) lowestScoreLocked() *entry {
	var victim *entry
	for _, e := range c.entries {
		if victim == nil || e.score() < victim.score() {
			victim = e
		}
	}
	return victim
}

// dropLocked removes an entry and its bytes.
func (c *Cache) dropLocked(e *entry) {
	c.bytes -= e.size
	delete(c.entries, e.key)
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

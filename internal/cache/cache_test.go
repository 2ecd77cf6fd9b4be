package cache

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
)

func testArrayOf(devs int) *nvmesim.Array {
	return nvmesim.New(devs, nvmesim.DeviceSpec{
		ReadBandwidth:  4e9,
		WriteBandwidth: 2e9,
		Latency:        20 * time.Microsecond,
	}, nvmesim.RealClock{})
}

func testArray() *nvmesim.Array { return testArrayOf(2) }

// spillTo is a spill template over arr: no scheduler, parity or compression.
func spillTo(arr *nvmesim.Array) *core.SpillConfig { return &core.SpillConfig{Array: arr} }

// drain clears the cache and checks that every demotion lease went with it.
func drain(t *testing.T, c *Cache, arr *nvmesim.Array) {
	t.Helper()
	c.Clear()
	if n := arr.Leases(); n != 0 {
		t.Fatalf("%d leases live after Clear", n)
	}
}

func testBatch(rows int, tag string) *data.Batch {
	sch := &data.Schema{Cols: []data.ColumnDef{
		{Name: "k", Type: data.Int64},
		{Name: "v", Type: data.Float64},
		{Name: "s", Type: data.String},
	}}
	b := data.NewBatch(sch, rows)
	for i := 0; i < rows; i++ {
		b.Cols[0].I = append(b.Cols[0].I, int64(i))
		b.Cols[1].F = append(b.Cols[1].F, float64(i)*0.5)
		b.Cols[2].S = append(b.Cols[2].S, fmt.Sprintf("%s-%d", tag, i))
	}
	b.SetLen(rows)
	return b
}

func batchesEqual(t *testing.T, a, b *data.Batch) {
	t.Helper()
	if a.Rows() != b.Rows() {
		t.Fatalf("row count: %d vs %d", a.Rows(), b.Rows())
	}
	for i := 0; i < a.Rows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		if a.Cols[0].I[ra] != b.Cols[0].I[rb] ||
			a.Cols[1].F[ra] != b.Cols[1].F[rb] ||
			a.Cols[2].S[ra] != b.Cols[2].S[rb] {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestCacheMemoryHit(t *testing.T) {
	arr := testArray()
	c := New(Config{Capacity: 1 << 20, Spill: spillTo(arr)})
	in := testBatch(100, "a")
	key := Key{Plan: 1, Gen: 1}
	if !c.Put(key, in, time.Second) {
		t.Fatal("put refused")
	}
	got, tier, err := c.Get(key)
	if err != nil || tier != TierMemory {
		t.Fatalf("tier=%v err=%v, want memory hit", tier, err)
	}
	batchesEqual(t, in, got)
	// The returned batch is a private copy: mutating it must not poison
	// the cache.
	got.Cols[0].I[0] = 999
	again, _, _ := c.Get(key)
	if again.Cols[0].I[0] == 999 {
		t.Fatal("cache returned an aliased batch")
	}
	if _, tier, _ := c.Get(Key{Plan: 2, Gen: 1}); tier != TierNone {
		t.Fatal("phantom hit")
	}
	s := c.Stats()
	if s.Hits != 2 || s.HitsMemory != 2 || s.Misses != 1 {
		t.Fatalf("stats: %+v", s)
	}
	drain(t, c, arr)
}

func TestCacheDemoteRestore(t *testing.T) {
	arr := testArray()
	c := New(Config{Capacity: 1 << 20, Spill: spillTo(arr)})
	in := testBatch(1000, "demote")
	key := Key{Plan: 7, Gen: 1}
	if !c.Put(key, in, time.Second) {
		t.Fatal("put refused")
	}
	if n := c.DemoteAll(); n != 1 {
		t.Fatalf("demoted %d entries, want 1", n)
	}
	if s := c.Stats(); s.HotEntries != 0 || s.DiskEntries != 1 || s.Reserved != 0 {
		t.Fatalf("after demotion: %+v", s)
	}
	if arr.LiveExtents() == 0 {
		t.Fatal("demotion wrote nothing to the array")
	}
	got, tier, err := c.Get(key)
	if err != nil || tier != TierNVMe {
		t.Fatalf("tier=%v err=%v, want nvme hit", tier, err)
	}
	batchesEqual(t, in, got)
	// The hit promoted the entry back to memory and freed its lease.
	if s := c.Stats(); s.HotEntries != 1 || s.DiskEntries != 0 {
		t.Fatalf("after restore: %+v", s)
	}
	if n := arr.LiveExtents(); n != 0 {
		t.Fatalf("%d extents live after promotion", n)
	}
	if _, tier, _ := c.Get(key); tier != TierMemory {
		t.Fatal("promoted entry did not serve from memory")
	}
	drain(t, c, arr)
}

func TestCacheCostAdmission(t *testing.T) {
	arr := testArray()
	c := New(Config{Capacity: 1 << 20, Spill: spillTo(arr)})
	// A result whose compute time is below the restore estimate must be
	// refused — caching it cannot win.
	if c.Put(Key{Plan: 1, Gen: 1}, testBatch(10, "cheap"), time.Nanosecond) {
		t.Fatal("cached a result cheaper than its restore")
	}
	if s := c.Stats(); s.Rejects != 1 || s.Puts != 0 {
		t.Fatalf("stats: %+v", s)
	}
	drain(t, c, arr)
}

func TestCacheEvictionDemotes(t *testing.T) {
	arr := testArray()
	// Capacity fits roughly two of the three entries.
	b := testBatch(1000, "x")
	size := batchFootprint(b)
	c := New(Config{Capacity: size*2 + size/2, Spill: spillTo(arr)})
	for i := 0; i < 3; i++ {
		if !c.Put(Key{Plan: uint64(i), Gen: 1}, testBatch(1000, "x"), time.Duration(i+1)*time.Second) {
			t.Fatalf("put %d refused", i)
		}
	}
	s := c.Stats()
	if s.HotEntries != 2 || s.DiskEntries != 1 {
		t.Fatalf("want 2 hot + 1 demoted, got %+v", s)
	}
	// The lowest-cost entry (Plan 0) is the demotion victim.
	if _, tier, err := c.Get(Key{Plan: 0, Gen: 1}); err != nil || tier != TierNVMe {
		t.Fatalf("lowest-score entry: tier=%v err=%v, want nvme", tier, err)
	}
	drain(t, c, arr)
}

func TestCacheGovernorIntegration(t *testing.T) {
	gov := pages.NewGovernor(1<<20, 1<<16)
	arr := testArray()
	c := New(Config{Capacity: 1 << 19, Spill: spillTo(arr), Gov: gov})
	in := testBatch(2000, "gov")
	size := batchFootprint(in)
	if !c.Put(Key{Plan: 1, Gen: 1}, in, time.Second) {
		t.Fatal("put refused")
	}
	if got := gov.CacheReserved(); got != size {
		t.Fatalf("CacheReserved = %d, want %d", got, size)
	}
	// Shrink (the pressure callback) demotes and returns the reservation.
	if freed := c.Shrink(1); freed < size {
		t.Fatalf("Shrink freed %d, want >= %d", freed, size)
	}
	if got := gov.CacheReserved(); got != 0 {
		t.Fatalf("CacheReserved = %d after shrink, want 0", got)
	}
	if s := c.Stats(); s.DiskEntries != 1 || s.Demotions != 1 {
		t.Fatalf("shrink did not demote: %+v", s)
	}
	// The entry is still servable.
	got, tier, err := c.Get(Key{Plan: 1, Gen: 1})
	if err != nil || tier != TierNVMe {
		t.Fatalf("tier=%v err=%v", tier, err)
	}
	batchesEqual(t, in, got)
	c.Clear()
	if gov.CacheReserved() != 0 || arr.Leases() != 0 {
		t.Fatalf("drain failed: reserved=%d leases=%d", gov.CacheReserved(), arr.Leases())
	}
}

// TestCacheMemoryOnlyEvictionUnderGovernor evicts from a cache with no
// spill array: every hot-tier eviction takes the drop path. hotBytes and
// the governor reservation must be adjusted exactly once per drop
// (regression: evictHotLocked repeated dropLocked's accounting, driving
// both negative and panicking the governor's ReleaseCache).
func TestCacheMemoryOnlyEvictionUnderGovernor(t *testing.T) {
	gov := pages.NewGovernor(1<<20, 1<<16)
	probe := testBatch(1000, "memonly")
	size := batchFootprint(probe)
	c := New(Config{Capacity: size + size/2, Gov: gov})
	for i := 0; i < 3; i++ {
		if !c.Put(Key{Plan: uint64(i + 1), Gen: 1}, testBatch(1000, "memonly"), time.Second) {
			t.Fatalf("put %d refused", i)
		}
	}
	s := c.Stats()
	if s.HotEntries != 1 || s.HotBytes != size || s.Drops != 2 {
		t.Fatalf("after drop-evictions: %+v", s)
	}
	if got := gov.CacheReserved(); got != size {
		t.Fatalf("CacheReserved = %d, want %d", got, size)
	}
	c.Clear()
	if got := gov.CacheReserved(); got != 0 {
		t.Fatalf("CacheReserved = %d after Clear, want 0", got)
	}
}

// TestCacheEvictionWithFullDemotedTier evicts a hot entry when the
// demoted tier is full and the hot victim is the weakest entry: demotion
// refuses, so the victim drops. The drop must not repeat the eviction
// accounting (same regression as above, on the array-configured path).
func TestCacheEvictionWithFullDemotedTier(t *testing.T) {
	gov := pages.NewGovernor(1<<20, 1<<16)
	arr := testArray()
	probe := testBatch(1000, "full")
	size := batchFootprint(probe)
	c := New(Config{Capacity: size + size/2, Spill: spillTo(arr), Gov: gov})
	// High-cost entries fill the demoted tier: its cap is diskFactor × 1.5 ×
	// size, so exactly full entries fit.
	full := int(diskFactor * (size + size/2) / size)
	for i := 1; i <= full; i++ {
		if !c.Put(Key{Plan: uint64(i), Gen: 1}, testBatch(1000, "full"), 10*time.Second) {
			t.Fatalf("put %d refused", i)
		}
	}
	if n := c.DemoteAll(); n != 1 {
		t.Fatalf("demoted %d entries, want the last one", n)
	}
	// A lower-cost hot entry cannot displace them: eviction must drop it.
	if !c.Put(Key{Plan: 100, Gen: 1}, testBatch(1000, "full"), time.Second) {
		t.Fatal("put refused")
	}
	c.DemoteAll()
	s := c.Stats()
	if s.HotEntries != 0 || s.HotBytes != 0 || s.DiskEntries != full || s.Drops != 1 {
		t.Fatalf("after refused demotion: %+v", s)
	}
	if got := gov.CacheReserved(); got != 0 {
		t.Fatalf("CacheReserved = %d, want 0", got)
	}
	// The surviving demoted entries still restore.
	if _, tier, err := c.Get(Key{Plan: 1, Gen: 1}); err != nil || tier != TierNVMe {
		t.Fatalf("tier=%v err=%v, want nvme", tier, err)
	}
	drain(t, c, arr)
	if got := gov.CacheReserved(); got != 0 {
		t.Fatalf("CacheReserved = %d after Clear, want 0", got)
	}
}

func TestCacheInvalidation(t *testing.T) {
	arr := testArray()
	c := New(Config{Capacity: 1 << 20, Spill: spillTo(arr)})
	c.Put(Key{Plan: 1, Gen: 1}, testBatch(100, "old"), time.Second)
	c.Put(Key{Plan: 2, Gen: 1}, testBatch(100, "old2"), time.Second)
	c.DemoteAll()
	c.Put(Key{Plan: 3, Gen: 2}, testBatch(100, "new"), time.Second)
	c.RemoveStale(2)
	if _, tier, _ := c.Get(Key{Plan: 1, Gen: 1}); tier != TierNone {
		t.Fatal("stale hot entry survived invalidation")
	}
	if _, tier, _ := c.Get(Key{Plan: 2, Gen: 1}); tier != TierNone {
		t.Fatal("stale demoted entry survived invalidation")
	}
	if _, tier, _ := c.Get(Key{Plan: 3, Gen: 2}); tier != TierMemory {
		t.Fatal("current-generation entry dropped by invalidation")
	}
	if s := c.Stats(); s.Invalidated != 2 {
		t.Fatalf("stats: %+v", s)
	}
	if n := arr.Leases(); n != 0 {
		t.Fatalf("%d leases live after invalidation", n)
	}
}

func TestCacheDeviceLossDropsEntry(t *testing.T) {
	arr := testArray()
	c := New(Config{Capacity: 1 << 20, Spill: spillTo(arr)})
	key := Key{Plan: 1, Gen: 1}
	c.Put(key, testBatch(500, "dead"), time.Second)
	c.DemoteAll()
	arr.KillDevice(0)
	arr.KillDevice(1)
	if _, tier, err := c.Get(key); err == nil && tier != TierNone {
		t.Fatalf("hit served from dead devices (tier=%v)", tier)
	}
	// The unreadable entry must be gone, not retried forever.
	if s := c.Stats(); s.DiskEntries != 0 {
		t.Fatalf("unreadable entry retained: %+v", s)
	}
	drain(t, c, arr)
}

// TestCacheDemoteRestoreMultiChunk demotes a result whose encoded tuples
// span many pages and several staging blocks. The rows must come back whole
// and in their original order (regression: large aggregate results restored
// as "corrupt tuple length" when a tuple straddled a chunk boundary).
func TestCacheDemoteRestoreMultiChunk(t *testing.T) {
	sch := &data.Schema{Cols: []data.ColumnDef{
		{Name: "k", Type: data.Int64},
		{Name: "v", Type: data.Float64},
	}}
	const rows = 40000 // 18 bytes/tuple serialized: well past two chunks
	b := data.NewBatch(sch, rows)
	for i := 0; i < rows; i++ {
		b.Cols[0].I = append(b.Cols[0].I, int64(i*4))
		b.Cols[1].F = append(b.Cols[1].F, float64(i)*1.25)
	}
	b.SetLen(rows)

	arr := testArray()
	c := New(Config{Capacity: 4 << 20, Spill: spillTo(arr)})
	key := Key{Plan: 7, Gen: 1}
	if !c.Put(key, b, time.Second) {
		t.Fatal("put refused")
	}
	if n := c.DemoteAll(); n != 1 {
		t.Fatalf("demoted %d entries, want 1", n)
	}
	got, tier, err := c.Get(key)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if tier != TierNVMe {
		t.Fatalf("tier %v, want nvme", tier)
	}
	if got.Rows() != rows {
		t.Fatalf("restored %d rows, want %d", got.Rows(), rows)
	}
	for i := 0; i < rows; i++ {
		r := got.Row(i)
		if got.Cols[0].I[r] != int64(i*4) || got.Cols[1].F[r] != float64(i)*1.25 {
			t.Fatalf("row %d corrupt: %d %v", i, got.Cols[0].I[r], got.Cols[1].F[r])
		}
	}
	drain(t, c, arr)
}

// demoted puts b under key and demotes it.
func demoted(t *testing.T, c *Cache, key Key, b *data.Batch) {
	t.Helper()
	if !c.Put(key, b, time.Second) {
		t.Fatal("put refused")
	}
	if n := c.DemoteAll(); n != 1 {
		t.Fatalf("demoted %d entries, want 1", n)
	}
}

// TestCacheRestoreRetriesTransientReadError: a restore read that fails
// transiently is retried, and the hit is served from NVMe.
func TestCacheRestoreRetriesTransientReadError(t *testing.T) {
	arr := testArray()
	c := New(Config{Capacity: 1 << 20, Spill: spillTo(arr)})
	key := Key{Plan: 1, Gen: 1}
	in := testBatch(500, "retry")
	demoted(t, c, key, in)
	// The next request on every device fails once: the entry's one block
	// read is among them.
	for dev := 0; dev < arr.Devices(); dev++ {
		arr.SetFaultPlan(dev, nvmesim.FaultPlan{Script: map[int64]nvmesim.FaultKind{1: nvmesim.FaultTransient}})
	}
	got, tier, err := c.Get(key)
	if err != nil || tier != TierNVMe {
		t.Fatalf("tier=%v err=%v, want a retried nvme hit", tier, err)
	}
	batchesEqual(t, in, got)
	if n := arr.FaultStats(0).ReadErrors + arr.FaultStats(1).ReadErrors; n != 1 {
		t.Fatalf("%d read errors injected, want 1", n)
	}
	drain(t, c, arr)
}

// TestCacheRestoreRebuildsFromParity: with parity on, an entry whose blocks
// lost a device after demotion is rebuilt from its stripes, bit-identical.
func TestCacheRestoreRebuildsFromParity(t *testing.T) {
	arr := testArrayOf(4)
	c := New(Config{Capacity: 8 << 20, Spill: &core.SpillConfig{Array: arr, Parity: 2}})
	key := Key{Plan: 1, Gen: 1}
	in := testBatch(20000, "parity") // several blocks: every device holds some
	demoted(t, c, key, in)
	arr.KillDevice(0)
	got, tier, err := c.Get(key)
	if err != nil || tier != TierNVMe {
		t.Fatalf("tier=%v err=%v, want an nvme hit rebuilt from parity", tier, err)
	}
	batchesEqual(t, in, got)
	drain(t, c, arr)
}

// TestCacheDemoteRestoreOversizedRow: a row larger than a default page
// demotes on a page big enough for it.
func TestCacheDemoteRestoreOversizedRow(t *testing.T) {
	arr := testArray()
	c := New(Config{Capacity: 1 << 20, Spill: spillTo(arr)})
	key := Key{Plan: 1, Gen: 1}
	in := testBatch(3, "big")
	in.Cols[2].S[1] = strings.Repeat("x", 100<<10)
	demoted(t, c, key, in)
	got, tier, err := c.Get(key)
	if err != nil || tier != TierNVMe {
		t.Fatalf("tier=%v err=%v, want nvme", tier, err)
	}
	batchesEqual(t, in, got)
	drain(t, c, arr)
}

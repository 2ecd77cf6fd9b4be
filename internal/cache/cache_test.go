package cache

import (
	"fmt"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/data"
)

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
	c := New(Config{Capacity: 1 << 20})
	in := testBatch(100, "a")
	key := Key{Plan: 1}
	if !c.Put(key, in, time.Second) {
		t.Fatal("put refused")
	}
	got, hit, err := c.Get(key)
	if err != nil || !hit {
		t.Fatalf("hit=%v err=%v, want a hit", hit, err)
	}
	batchesEqual(t, in, got)
	// The returned batch is a private copy: mutating it must not poison
	// the cache.
	got.Cols[0].I[0] = 999
	again, _, _ := c.Get(key)
	if again.Cols[0].I[0] == 999 {
		t.Fatal("cache returned an aliased batch")
	}
	if b, hit, _ := c.Get(Key{Plan: 2}); hit || b != nil {
		t.Fatal("phantom hit")
	}
}

func TestCacheCostAdmission(t *testing.T) {
	c := New(Config{Capacity: 1 << 20})
	// A result whose compute time is below the admission bar must be
	// refused — caching it cannot win.
	key := Key{Plan: 1}
	if c.Put(key, testBatch(10, "cheap"), time.Nanosecond) {
		t.Fatal("cached a result cheaper than the admission bar")
	}
	if _, hit, _ := c.Get(key); hit {
		t.Fatal("refused result served")
	}
}

// TestCacheEvictionDrops fills a cache that holds two of three entries: the
// lowest-score entry is dropped, and the byte count is adjusted exactly once
// per drop.
func TestCacheEvictionDrops(t *testing.T) {
	size := batchFootprint(testBatch(1000, "x"))
	c := New(Config{Capacity: size*2 + size/2})
	for i := 0; i < 3; i++ {
		if !c.Put(Key{Plan: uint64(i)}, testBatch(1000, "x"), time.Duration(i+1)*time.Second) {
			t.Fatalf("put %d refused", i)
		}
	}
	// The lowest-cost entry (Plan 0) is the victim.
	if _, hit, _ := c.Get(Key{Plan: 0}); hit {
		t.Fatal("lowest-score entry survived eviction")
	}
	for i := 1; i < 3; i++ {
		if _, hit, _ := c.Get(Key{Plan: uint64(i)}); !hit {
			t.Fatalf("entry %d evicted, want only the lowest-score one", i)
		}
	}
	if len(c.entries) != 2 || c.bytes != 2*size {
		t.Fatalf("%d entries, %d bytes after eviction; want 2 and %d", len(c.entries), c.bytes, 2*size)
	}
}

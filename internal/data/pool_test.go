package data

import (
	"fmt"
	"testing"
)

func TestBatchPoolLease(t *testing.T) {
	s := testSchema()
	p := NewBatchPool(s)

	b := p.Get()
	if b.Schema != s {
		t.Fatal("pooled batch has wrong schema")
	}
	if b.Len() != 0 {
		t.Fatal("pooled batch not reset")
	}
	fillRow(b, 1, 1.5, "x", 0, 1)
	b.Release()

	b2 := p.Get()
	if b2.Len() != 0 {
		t.Fatal("reused batch not reset")
	}
	b2.Release()

	gets, puts := p.Counters()
	if gets != 2 || puts != 2 {
		t.Fatalf("counters = %d gets, %d puts; want 2, 2", gets, puts)
	}
}

func TestBatchReleaseWithoutPoolIsNoop(t *testing.T) {
	b := NewBatch(testSchema(), 4)
	b.Release() // must not panic: plain batches have no pool
	b.Release()
}

func TestBatchPoolDoubleReleaseOnlyCountsOnce(t *testing.T) {
	p := NewBatchPool(testSchema())
	b := p.Get()
	b.Release()
	b.Release() // second release of the same lease is a no-op
	if gets, puts := p.Counters(); gets != 1 || puts != 1 {
		t.Fatalf("counters = %d gets, %d puts; want 1, 1", gets, puts)
	}
}

func TestByteArenaIntern(t *testing.T) {
	var a ByteArena
	if a.InternBytes(nil) != "" {
		t.Fatal("empty intern")
	}
	vals := make([]string, 0, 1000)
	for i := 0; i < 1000; i++ {
		vals = append(vals, a.InternBytes([]byte(fmt.Sprintf("value-%d", i))))
	}
	for i, v := range vals {
		if v != fmt.Sprintf("value-%d", i) {
			t.Fatalf("interned string %d corrupted: %q", i, v)
		}
	}
	// Oversized values bypass the chunk so they cannot strand it.
	big := make([]byte, arenaChunkSize)
	if got := a.InternBytes(big); len(got) != len(big) {
		t.Fatal("oversized intern")
	}
}

// TestBorrowedColumnsAreDroppedOnReset: a batch whose columns are views of
// storage it does not own must not keep them across Reset or a trip through
// the pool — a kept view has the owner's array under it, and the next append
// would write there.
func TestBorrowedColumnsAreDroppedOnReset(t *testing.T) {
	s := NewSchema(ColumnDef{"id", Int64}, ColumnDef{"price", Float64}, ColumnDef{"name", String})
	ids, prices, names := []int64{1, 2, 3, 4}, []float64{1, 2, 3, 4}, []string{"a", "b", "c", "d"}
	p := NewBatchPool(s)
	for _, giveBack := range []func(*Batch){(*Batch).Reset, (*Batch).Release} {
		b := p.Get()
		b.Cols[0].I, b.Cols[1].F, b.Cols[2].S = ids[:2], prices[:2], names[:2]
		b.SetLen(2)
		b.Borrow()
		giveBack(b)

		b = p.Get()
		b.Cols[0].I = append(b.Cols[0].I, 99)
		b.Cols[1].F = append(b.Cols[1].F, 99)
		b.Cols[2].S = append(b.Cols[2].S, "zz")
		b.SetLen(1)
		if ids[0] != 1 || prices[0] != 1 || names[0] != "a" {
			t.Fatal("an append after Reset wrote into the borrowed arrays")
		}
		// The mark does not outlive the Reset: owned columns keep capacity.
		b.Reset()
		if cap(b.Cols[0].I) == 0 {
			t.Fatal("owned columns were dropped too")
		}
		b.Release()
	}
}

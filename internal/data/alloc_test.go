//go:build !race

// Allocation-count regression tests for the row-codec hot path. Excluded
// under -race: the race runtime adds bookkeeping allocations that make
// testing.AllocsPerRun meaningless.

package data

import (
	"math/rand"
	"testing"

	"github.com/spilly-db/spilly/internal/xhash"
)

// allocBatch builds a 1024-row batch over the standard test schema.
func allocBatch() *Batch {
	s := testSchema()
	b := NewBatch(s, 1024)
	for i := 0; i < 1024; i++ {
		fillRow(b, int64(i), float64(i)*0.5, "supplier name padding", int64(i%3000), int64(i%2))
	}
	return b
}

func assertAllocs(t *testing.T, name string, want float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(50, f); got > want {
		t.Errorf("%s: %.1f allocs/run, want <= %.0f", name, got, want)
	}
}

func TestAllocsXHash(t *testing.T) {
	buf := []byte("some medium length key value")
	str := string(buf)
	var sink uint64
	assertAllocs(t, "xhash.Bytes", 0, func() { sink = xhash.Bytes(buf, 7) })
	assertAllocs(t, "xhash.String", 0, func() { sink = xhash.String(str, 7) })
	_ = sink
}

func TestAllocsRowCodecBulk(t *testing.T) {
	b := allocBatch()
	rc := NewRowCodec(b.Schema.Types())
	sizes := rc.SizeAll(b, nil, make([]int, 0, b.Len()))
	dsts := make([][]byte, b.Len())
	for i, sz := range sizes {
		dsts[i] = make([]byte, sz)
	}
	sizeBuf := make([]int, 0, b.Len())
	assertAllocs(t, "SizeAll", 0, func() { sizeBuf = rc.SizeAll(b, nil, sizeBuf[:0]) })
	assertAllocs(t, "EncodeAll", 0, func() { rc.EncodeAll(dsts, b, nil) })
}

func TestAllocsTupleOps(t *testing.T) {
	b := allocBatch()
	rc := NewRowCodec(b.Schema.Types())
	tup := encodeRow(rc, b, 0)
	tup2 := encodeRow(rc, b, 1)
	keys := []int{0, 2} // int64 + string key
	var h uint64
	var eq bool
	// String keys hash and compare as views into the encoded tuple — the
	// zero-copy restore contract.
	assertAllocs(t, "HashTuple", 0, func() { h = rc.HashTuple(tup, keys) })
	assertAllocs(t, "KeyEqual", 0, func() { eq = rc.KeyEqual(tup, tup2, keys) })
	assertAllocs(t, "KeyEqualRow", 0, func() { eq = rc.KeyEqualRow(tup, keys, b, keys, 0) })
	assertAllocs(t, "StrBytes", 0, func() { _ = rc.StrBytes(tup, 2) })
	// A key copy into a buffer with room is a plain copy.
	keyBuf := rc.AppendKey(nil, tup, 3)
	assertAllocs(t, "AppendKey", 0, func() { keyBuf = rc.AppendKey(keyBuf[:0], tup, 3) })
	_, _ = h, eq
}

// TestAllocsArenaIntern pins the amortized cost of arena interning: one
// chunk allocation per 64 KiB of string data, i.e. well under one
// allocation per call for TPC-H-sized values.
func TestAllocsArenaIntern(t *testing.T) {
	var a ByteArena
	val := []byte("twenty-three byte value")
	got := testing.AllocsPerRun(2000, func() { _ = a.InternBytes(val) })
	if got > 0.05 {
		t.Errorf("InternBytes: %.3f allocs/run, want amortized < 0.05", got)
	}
}

func BenchmarkAllocEncodeAll(b *testing.B) {
	bt := allocBatch()
	rc := NewRowCodec(bt.Schema.Types())
	sizes := rc.SizeAll(bt, nil, make([]int, 0, bt.Len()))
	dsts := make([][]byte, bt.Len())
	for i, sz := range sizes {
		dsts[i] = make([]byte, sz)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.EncodeAll(dsts, bt, nil)
	}
}

func BenchmarkAllocInternBytes(b *testing.B) {
	var a ByteArena
	val := []byte("twenty-three byte value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.InternBytes(val)
	}
}

func BenchmarkAllocAppendToArena(b *testing.B) {
	bt := allocBatch()
	rc := NewRowCodec(bt.Schema.Types())
	tup := encodeRow(rc, bt, 0)
	out := NewBatch(bt.Schema, 4096)
	var a ByteArena
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out.Len() >= 4096 {
			out.Reset()
		}
		rc.AppendToArena(out, tup, &a)
	}
}

func TestAllocsAppendToArena(t *testing.T) {
	b := allocBatch()
	rc := NewRowCodec(b.Schema.Types())
	tup := encodeRow(rc, b, 0)
	out := NewBatch(b.Schema, 2048)
	var a ByteArena
	// Warm the destination so append growth settles, then require the
	// steady state: no per-row allocations beyond amortized arena chunks.
	for i := 0; i < 2048; i++ {
		rc.AppendToArena(out, tup, &a)
	}
	got := testing.AllocsPerRun(1000, func() {
		out.Reset()
		rc.AppendToArena(out, tup, &a)
	})
	if got > 0.1 {
		t.Errorf("AppendToArena: %.3f allocs/run, want amortized < 0.1", got)
	}
}

// TestAllocsHashColumnsGrowOnce: hashing n rows into an empty slice grows it
// once, not once per append growth step, and into one of room enough not at
// all.
func TestAllocsHashColumnsGrowOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b *Batch
	for b == nil || b.Rows() < 100 {
		b = randVecBatch(rng)
	}
	keys := []int{0, 2}
	if got := testing.AllocsPerRun(20, func() { HashColumns(b, b.Sel, keys, nil) }); got > 1 {
		t.Errorf("hashing %d rows into an empty slice allocated %.0f times, want at most 1", b.Rows(), got)
	}
	out := make([]uint64, 0, b.Rows())
	if got := testing.AllocsPerRun(20, func() { out = HashColumns(b, b.Sel, keys, out[:0]) }); got != 0 {
		t.Errorf("hashing %d rows into a slice with room allocated %.0f times", b.Rows(), got)
	}
}

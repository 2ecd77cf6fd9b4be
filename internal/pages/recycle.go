package pages

import (
	"math/bits"
	"unsafe"
)

// The engine's one recycler for working memory that dies long before the
// collector would notice: page buffers, spill-restore read and decode
// buffers, hash-table arrays, and per-worker scratch structs. Umami takes a
// fixed-size page from a pool and reuses it as soon as its contents are dead
// (paper §5.3, Listing 2); here every owner hands its memory back at the
// moment its last reader is done — a materialized result when its operator
// has consumed it, a readback block when its partition is consumed, a table's
// arrays when its output is drained, a worker's scratch when the worker ends
// — and the next owner, of this query or of another, takes it from here
// before it calls make.
//
// What the recycler holds it holds weakly (FreeList). A buffer handed back and
// not taken again before the next garbage collection is collected like any
// other dead memory: the recycler never adds to the live heap the collector
// marks, so it can not raise the heap goal, the process's resident memory or
// a budget's Peak. Between two collections the same memory goes round owner
// to owner.
//
// Byte buffers are size-classed: four classes per power of two from
// minRecycleBuf up, so a request is served by a buffer at most a quarter
// larger than it. A recycled buffer is not zeroed; its owner initializes what
// it reads. In race-detector builds every returned buffer is overwritten with
// a poison pattern first (recycle_race.go), so that a reader of released
// memory reads garbage and fails its checks instead of reading stale data
// that happens to be right.
//
// Safety contract: a buffer or struct must only be returned once its contents
// are provably dead — pages and decoded blocks are aliased by tuple views and
// hash tables — and by its one owner, exactly once; the owner must not touch
// it afterwards.

// minRecycleBuf keeps tiny buffers out of the recycler: recycling them saves
// nothing the allocator does not already do cheaply.
const minRecycleBuf = 4 << 10

// minClassShift is log2(minRecycleBuf); classSteps classes per power of two.
const (
	minClassShift = 12
	classSteps    = 4
	numClasses    = (48 - minClassShift) * classSteps
)

// classes are the byte-buffer free lists; class i holds buffers of exactly
// classSize(i) bytes.
var classes [numClasses]FreeList[byte]

// classSize returns the size of buffers in class i: (4+s) << (k-2) for the
// power of two k and the step s the index encodes.
func classSize(i int) int {
	k, s := i/classSteps+minClassShift, i%classSteps
	return (classSteps + s) << (k - 2)
}

// classUp returns the smallest class whose buffers hold n bytes (n >=
// minRecycleBuf).
func classUp(n int) int {
	k := bits.Len(uint(n)) - 1 // 2^k <= n < 2^(k+1)
	step := 1 << (k - 2)
	s := (n - 1<<k + step - 1) / step
	return (k-minClassShift)*classSteps + s // s == 4 rolls into the next power
}

// classDown returns the largest class a buffer of capacity c can serve, or
// -1 when c is below the smallest class.
func classDown(c int) int {
	if c < minRecycleBuf {
		return -1
	}
	k := bits.Len(uint(c)) - 1
	s := (c - 1<<k) / (1 << (k - 2))
	if i := (k-minClassShift)*classSteps + s; i < numClasses {
		return i
	}
	return numClasses - 1
}

// GetBuf returns a byte slice of length n, a recycled buffer when its class
// has one. Contents are undefined.
func GetBuf(n int) []byte {
	if n < minRecycleBuf {
		return make([]byte, n)
	}
	i := classUp(n)
	if i >= numClasses {
		return make([]byte, n)
	}
	size := classSize(i)
	if p := classes[i].Get(); p != nil {
		return unsafe.Slice(p, size)[:n]
	}
	return make([]byte, n, size)
}

// PutBuf makes a buffer available for reuse. The caller must not touch b
// afterwards.
func PutBuf(b []byte) {
	i := classDown(cap(b))
	if i < 0 {
		return
	}
	b = b[:cap(b)]
	if poisonRecycled {
		poison(b)
	}
	classes[i].Put(unsafe.SliceData(b))
}

// Plain is the element types an array from the recycler may hold: no
// pointers, so that a recycled byte buffer can carry them and the collector
// has nothing to trace.
type Plain interface {
	~byte | ~bool | ~int | ~int64 | ~uint64 | ~float64
}

// GetArray returns a slice of n elements from the recycler. Contents are
// undefined.
func GetArray[T Plain](n int) []T {
	var zero T
	w := int(unsafe.Sizeof(zero))
	if n*w < minRecycleBuf {
		return make([]T, n)
	}
	b := GetBuf(n * w)
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), cap(b)/w)[:n]
}

// PutArray returns s's array to the recycler. The caller must not touch s
// afterwards.
func PutArray[T Plain](s []T) {
	var zero T
	w := int(unsafe.Sizeof(zero))
	if cap(s)*w < minRecycleBuf {
		return
	}
	PutBuf(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), cap(s)*w))
}

// poisonRecycled, set in race-detector builds, makes PutBuf overwrite every
// buffer it takes back.
var poisonRecycled bool

// poison fills b with a pattern no engine structure reads as valid: page
// headers and slots become offsets far past any page, hash-table slots point
// at absent groups.
func poison(b []byte) {
	for i := range b {
		b[i] = 0xdb
	}
}

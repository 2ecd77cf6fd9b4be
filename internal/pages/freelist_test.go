package pages

import (
	"runtime"
	"testing"
)

// TestFreeListIsWeak: what a free list holds does not survive a collection
// nothing else keeps it alive through, and a full list sweeps out what was
// collected before it drops anything.
func TestFreeListIsWeak(t *testing.T) {
	var l FreeList[[1 << 12]byte]
	for i := 0; i < freeListCap; i++ {
		l.Put(new([1 << 12]byte))
	}
	runtime.GC()
	runtime.GC()
	kept := new([1 << 12]byte)
	l.Put(kept) // the list is full of collected entries: they are swept out
	if n := len(l.free); n > 2 {
		t.Fatalf("free list holds %d entries after a collection, want the one just put", n)
	}
	if l.Get() != kept {
		t.Fatal("free list lost the live entry")
	}
	if l.Get() != nil {
		t.Fatal("free list returned a collected entry")
	}
}

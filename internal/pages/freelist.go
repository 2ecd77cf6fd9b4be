package pages

import (
	"sync"
	"weak"
)

// freeListCap bounds one free list; beyond it a returned value is left to the
// collector (after the list's collected entries are swept out).
const freeListCap = 1024

// FreeList is a LIFO of weakly held values of type T: Put offers a value for
// reuse, Get takes the most recently offered one the collector has not yet
// reclaimed. Safe for concurrent use; the zero value is empty.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []weak.Pointer[T]
}

// Get returns a recycled value, or nil when none is left.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	for n := len(l.free); n > 0; n = len(l.free) {
		w := l.free[n-1]
		l.free = l.free[:n-1]
		if v := w.Value(); v != nil {
			return v
		}
	}
	return nil
}

// Put offers v for reuse. The caller must not touch v afterwards.
func (l *FreeList[T]) Put(v *T) {
	w := weak.Make(v)
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) >= freeListCap {
		live := l.free[:0]
		for _, x := range l.free {
			if x.Value() != nil {
				live = append(live, x)
			}
		}
		clear(l.free[len(live):])
		l.free = live
		if len(l.free) >= freeListCap {
			return
		}
	}
	l.free = append(l.free, w)
}

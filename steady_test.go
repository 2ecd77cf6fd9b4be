//go:build !race

package spilly

import (
	"runtime"
	"testing"
)

// steadyAllocBound bounds the bytes the second of two serial passes over the
// 22 TPC-H queries allocates on one in-memory SF 0.01 engine (Workers=2). The
// first pass warms the recycler and the per-worker scratch; the second pays
// for what a query still allocates afresh, and for what the recycler lost to
// a collection (it holds its buffers weakly, and this small heap is collected
// about twice a pass). Measured at 55–67 MB in 12 runs on a 2-core x86-64
// box (Go 1.24, GOGC 100); the bound adds a fifth to the highest. Before
// pages, scratch and table arrays were recycled the same pass allocated
// 117–124 MB.
const steadyAllocBound = 80 << 20

// TestSteadyStateAllocations pins the engine's steady state: a query's dead
// working memory — pages, hash tables, probe and aggregation scratch — goes
// back to the recycler and the next query takes it from there, so a warm
// engine allocates little per query. Skipped under the race detector, whose
// runtime allocates on its own.
func TestSteadyStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 22 queries twice")
	}
	eng, err := Open(Config{Workers: 2, Compression: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTPCH(0.01, false); err != nil {
		t.Fatal(err)
	}
	pass := func() (total int64) {
		for q := 1; q <= 22; q++ {
			res, err := eng.RunTPCH(q)
			if err != nil {
				t.Fatalf("Q%d: %v", q, err)
			}
			total += res.Stats.AllocBytes
		}
		return total
	}
	pass()
	runtime.GC() // what earlier tests left behind does not pace this pass
	if got := pass(); got > steadyAllocBound {
		t.Errorf("second pass allocated %.1f MB, bound %.1f MB", float64(got)/(1<<20), float64(steadyAllocBound)/(1<<20))
	} else {
		t.Logf("second pass allocated %.1f MB (bound %.1f MB)", float64(got)/(1<<20), float64(steadyAllocBound)/(1<<20))
	}
}

//go:build !race

package spilly

import (
	"math"
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

// allocParityBound bounds, per TPC-H query, how many more heap objects an
// Adaptive engine that never spills allocates than an InMemoryOnly one, as a
// fraction of the InMemoryOnly count. What is left of the gap is what spilling
// needs before its first spill — 380 of 18,940 objects over the 22 queries
// (2.0%; at most 2.6% of one query) on a 2-core x86-64 box (Go 1.24): a
// regulator per worker buffer (224), a copy of the spill configuration per
// operator (112), and per query the spill configuration and its lease (44),
// by an allocation profile of 200 passes. When every buffer also built its
// spill writer, ring and scheduler registration up front, the gap was 2,063
// of 19,500 (10.6%), 6.6% or more of every query.
const allocParityBound = 0.05

// TestAdaptiveAllocParity: an Adaptive engine with room for everything pays
// for adaptivity only at the first spill. Per query, with the counts of each
// engine the least of three AllocsPerRun(5) measurements (a collection during
// a run can only add allocations, as the recycler refills), Adaptive stays
// within allocParityBound of InMemoryOnly. SF 0.01, no budget, Compression
// on, 2 workers.
func TestAdaptiveAllocParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 22 queries 36 times on two engines")
	}
	var engines [2]*Engine
	for i, b := range []Baseline{Adaptive, InMemoryOnly} {
		eng, err := Open(Config{Workers: 2, Compression: true, Baseline: b})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadTPCH(0.01, false); err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	allocs := func(eng *Engine, q int) float64 {
		least := math.Inf(1)
		for range 3 {
			least = min(least, testing.AllocsPerRun(5, func() {
				if _, err := eng.RunTPCH(q); err != nil {
					t.Fatalf("Q%d: %v", q, err)
				}
			}))
		}
		return least
	}
	var gap, inMem, worst float64
	for q := 1; q <= 22; q++ {
		a, m := allocs(engines[0], q), allocs(engines[1], q)
		if a-m > allocParityBound*m {
			t.Errorf("Q%d: Adaptive allocated %.0f objects, InMemoryOnly %.0f: %.1f%% more, bound %.0f%%",
				q, a, m, 100*(a-m)/m, 100*allocParityBound)
		}
		gap, inMem, worst = gap+a-m, inMem+m, max(worst, (a-m)/m)
	}
	t.Logf("Adaptive allocated %.0f objects more than InMemoryOnly's %.0f over 22 queries (%.1f%%; at most %.1f%% of one query)",
		gap, inMem, 100*gap/inMem, 100*worst)
}

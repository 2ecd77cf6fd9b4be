package exec

import (
	"sort"
	"testing"

	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/trace"
)

func runExtSort(t *testing.T, ctx *Ctx, n, limit int) *data.Batch {
	t.Helper()
	s := &ExtSort{
		Child: NewScan(ordersTable(n), "okey", "total", "flag"),
		Keys:  []SortKey{{Col: "flag"}, {Col: "total", Desc: true}},
		Limit: limit,
	}
	out, err := Collect(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func checkSorted(t *testing.T, out *data.Batch) {
	t.Helper()
	for r := 1; r < out.Len(); r++ {
		fa, fb := out.Cols[2].S[r-1], out.Cols[2].S[r]
		if fa > fb {
			t.Fatalf("row %d: flag order violated (%q > %q)", r, fa, fb)
		}
		if fa == fb && out.Cols[1].F[r-1] < out.Cols[1].F[r] {
			t.Fatalf("row %d: total not descending within flag", r)
		}
	}
}

func TestExtSortInMemory(t *testing.T) {
	out := runExtSort(t, testCtx(2), 5000, 0)
	if out.Len() != 5000 {
		t.Fatalf("rows = %d", out.Len())
	}
	checkSorted(t, out)
}

func TestExtSortSpilling(t *testing.T) {
	ctx := spillCtx(2, 64)
	// The engine's default device slowed 4× (the ledger's micro_spill
	// devices): the merge must visibly wait for its run pages.
	ctx.Spill.Array = nvmesim.New(2, nvmesim.KioxiaCM7.Scaled(0.01).Scaled(0.25), nvmesim.RealClock{})
	ctx.Trace = trace.New(2)
	out := runExtSort(t, ctx, 20000, 0)
	if out.Len() != 20000 {
		t.Fatalf("rows = %d", out.Len())
	}
	checkSorted(t, out)
	if ctx.Stats.Get(metrics.SpilledBytes) == 0 {
		t.Fatal("external sort under 64KB budget did not spill")
	}
	// The merge blocks on run readback; that wait is spill stall, charged to
	// the query and to the extsort span alike.
	stall := ctx.Stats.Get(metrics.SpillStallNanos)
	if stall <= 0 {
		t.Fatal("external sort read its runs back from slowed devices with no spill stall time")
	}
	for _, sp := range ctx.Trace.Snapshots() {
		if sp.Op == "extsort" && sp.Snapshot[metrics.SpillStallNanos] != stall {
			t.Fatalf("extsort span stall = %dns, query total %dns", sp.Snapshot[metrics.SpillStallNanos], stall)
		}
	}
	// Every input row must come back exactly once.
	seen := map[int64]bool{}
	for r := 0; r < out.Len(); r++ {
		k := out.Cols[0].I[r]
		if seen[k] {
			t.Fatalf("key %d emitted twice", k)
		}
		seen[k] = true
	}
}

func TestExtSortMatchesInMemorySort(t *testing.T) {
	ref, err := Collect(testCtx(2), &Sort{
		Child: NewScan(ordersTable(8000), "okey", "total", "flag"),
		Keys:  []SortKey{{Col: "flag"}, {Col: "total", Desc: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := runExtSort(t, spillCtx(2, 96), 8000, 0)
	if ref.Len() != got.Len() {
		t.Fatalf("row counts differ: %d vs %d", ref.Len(), got.Len())
	}
	for r := 0; r < ref.Len(); r++ {
		// Keys must agree positionally (ties may reorder the okey within
		// equal (flag,total) pairs, but totals/flags must match exactly).
		if ref.Cols[1].F[r] != got.Cols[1].F[r] || ref.Cols[2].S[r] != got.Cols[2].S[r] {
			t.Fatalf("row %d differs: (%v,%q) vs (%v,%q)", r,
				ref.Cols[1].F[r], ref.Cols[2].S[r], got.Cols[1].F[r], got.Cols[2].S[r])
		}
	}
}

func TestExtSortLimit(t *testing.T) {
	out := runExtSort(t, spillCtx(2, 64), 10000, 25)
	if out.Len() != 25 {
		t.Fatalf("limit: %d rows", out.Len())
	}
	checkSorted(t, out)
}

func TestExtSortOOMWithoutSpill(t *testing.T) {
	ctx := spillCtx(2, 48)
	ctx.Spill = nil
	s := &ExtSort{
		Child: NewScan(ordersTable(20000), "okey"),
		Keys:  []SortKey{{Col: "okey"}},
	}
	if _, err := Collect(ctx, s); err == nil {
		t.Fatal("external sort without spill target survived budget exhaustion")
	}
}

func TestExtSortSingleWorkerOrderTotal(t *testing.T) {
	// With one worker and an int key, the output must be globally sorted
	// ascending over all inputs.
	ctx := spillCtx(1, 64)
	s := &ExtSort{
		Child: NewScan(ordersTable(15000), "okey"),
		Keys:  []SortKey{{Col: "okey"}},
	}
	out, err := Collect(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 15000 {
		t.Fatalf("rows = %d", out.Len())
	}
	if !sort.SliceIsSorted(out.Cols[0].I, func(a, b int) bool { return out.Cols[0].I[a] < out.Cols[0].I[b] }) {
		t.Fatal("output not globally sorted")
	}
}

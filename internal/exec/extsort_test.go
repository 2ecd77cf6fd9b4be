package exec

import (
	"sort"
	"testing"

	"github.com/spilly-db/spilly/internal/core"
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
	arr := nvmesim.New(2, nvmesim.KioxiaCM7.Scaled(0.01).Scaled(0.25), nvmesim.RealClock{})
	lease := arr.NewLease()
	ctx.Spill = &core.SpillConfig{Array: arr, Lease: lease, Compress: true, Parity: 2}
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
	// Runs take the hash partitions' spill path: every page goes through the
	// regulator (the span's scheme histogram counts each once), is framed,
	// and is verified when the merge reads it back.
	spilledPages := ctx.Stats.Get(metrics.SpilledBytes) / int64(ctx.pageSize())
	for _, sp := range ctx.Trace.Snapshots() {
		if sp.Op != "extsort" {
			continue
		}
		var pgs int64
		for _, n := range sp.Schemes {
			pgs += n
		}
		if pgs != spilledPages {
			t.Fatalf("extsort span's scheme histogram %v counts %d pages, it spilled %d", sp.Schemes, pgs, spilledPages)
		}
	}
	if v := ctx.Stats.Get(metrics.SpillPagesVerified); v != spilledPages {
		t.Fatalf("%d run pages verified on readback, %d spilled", v, spilledPages)
	}
	if ctx.Stats.Get(metrics.SpillParityBytes) == 0 {
		t.Fatal("no parity written for the runs")
	}
	ctx.Close()
	if n := lease.LiveExtents(); n != 0 {
		t.Fatalf("spill lease holds %d live extents after Close", n)
	}
	if used := ctx.Budget.Used(); used != 0 {
		t.Fatalf("%d budget bytes still reserved after Close", used)
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

// BenchmarkExtSortSpill sorts 100 k rows under a 256 KiB budget on spillCtx's
// fast two-device array with compression on: every op generates runs, spills
// them through the Umami writer and merges them back. It reports ns/row and
// the written/spilled byte ratio of the runs.
func BenchmarkExtSortSpill(b *testing.B) {
	const rows = 100000
	plan := &ExtSort{
		Child: NewScan(ordersTable(rows), "okey", "total", "flag"),
		Keys:  []SortKey{{Col: "flag"}, {Col: "total", Desc: true}},
	}
	var spilled, written int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := spillCtx(2, 256)
		ctx.Spill.Compress = true
		s, err := plan.Run(ctx)
		if err == nil {
			err = Drain(ctx, s, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
		spilled += ctx.Stats.Get(metrics.SpilledBytes)
		written += ctx.Stats.Get(metrics.WrittenBytes)
		ctx.Close()
	}
	if spilled == 0 {
		b.Fatal("the sort did not spill")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
	b.ReportMetric(float64(written)/float64(spilled), "written/spilled")
}

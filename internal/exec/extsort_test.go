package exec

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/spilly-db/spilly/internal/colstore"
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
	// and is verified when the merge reads it back. A spilled page stages its
	// used bytes only: at most a page's, and on these full runs at least half.
	spilledPages := ctx.Stats.Get(metrics.SpillPagesVerified)
	if b := ctx.Stats.Get(metrics.SpilledBytes); b > spilledPages*int64(ctx.pageSize()) || 2*b < spilledPages*int64(ctx.pageSize()) {
		t.Fatalf("%d bytes spilled in %d pages of %d bytes", b, spilledPages, ctx.pageSize())
	}
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
	in, err := Collect(testCtx(1), NewScan(ordersTable(8000), "okey", "total", "flag"))
	if err != nil {
		t.Fatal(err)
	}
	// The reference: a stable sort of the collected input by (flag, total
	// desc). Both keys together are unique, so the order is total.
	ref := make([]int, in.Len())
	for i := range ref {
		ref[i] = i
	}
	slices.SortStableFunc(ref, func(a, b int) int {
		if c := strings.Compare(in.Cols[2].S[a], in.Cols[2].S[b]); c != 0 {
			return c
		}
		return cmp.Compare(in.Cols[1].F[b], in.Cols[1].F[a])
	})
	got := runExtSort(t, spillCtx(2, 96), 8000, 0)
	if len(ref) != got.Len() {
		t.Fatalf("row counts differ: %d vs %d", len(ref), got.Len())
	}
	for r, i := range ref {
		if in.Cols[0].I[i] != got.Cols[0].I[r] || in.Cols[1].F[i] != got.Cols[1].F[r] || in.Cols[2].S[i] != got.Cols[2].S[r] {
			t.Fatalf("row %d differs: (%d,%v,%q) vs (%d,%v,%q)", r,
				in.Cols[0].I[i], in.Cols[1].F[i], in.Cols[2].S[i], got.Cols[0].I[r], got.Cols[1].F[r], got.Cols[2].S[r])
		}
	}
}

// TestExtSortLimit: a Limit keeps exactly the first rows of the full order,
// whether the workers' bounded top-k runs stay in memory or spill, and a
// Limit past the input keeps it all.
func TestExtSortLimit(t *testing.T) {
	full := runExtSort(t, testCtx(2), 10000, 0)
	for _, tc := range []struct {
		name  string
		ctx   *Ctx
		limit int
	}{
		{"spill", spillCtx(2, 64), 25},
		{"inmem", testCtx(2), 25},
		{"inmem-past-input", testCtx(2), 20000},
	} {
		out := runExtSort(t, tc.ctx, 10000, tc.limit)
		if want := min(tc.limit, full.Len()); out.Len() != want {
			t.Fatalf("%s: %d rows, want %d", tc.name, out.Len(), want)
		}
		for r := 0; r < out.Len(); r++ {
			if out.Cols[0].I[r] != full.Cols[0].I[r] {
				t.Fatalf("%s: row %d is okey %d, the full sort has %d", tc.name, r, out.Cols[0].I[r], full.Cols[0].I[r])
			}
		}
	}
}

func TestExtSortAndLimit(t *testing.T) {
	out := runExtSort(t, testCtx(2), 1000, 10)
	if out.Len() != 10 {
		t.Fatalf("limit: %d rows", out.Len())
	}
	for r := 0; r < out.Len(); r++ {
		if out.Cols[2].S[r] != "A" {
			t.Fatalf("row %d flag %q, want A first", r, out.Cols[2].S[r])
		}
	}
	checkSorted(t, out)
}

func TestExtSortFullOrder(t *testing.T) {
	s := &ExtSort{Child: NewScan(ordersTable(500), "okey"), Keys: []SortKey{{Col: "okey"}}}
	out, err := Collect(testCtx(3), s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 500 {
		t.Fatalf("rows = %d", out.Len())
	}
	for r := 0; r < out.Len(); r++ {
		if out.Cols[0].I[r] != int64(r) {
			t.Fatalf("row %d is okey %d", r, out.Cols[0].I[r])
		}
	}
}

// tieTable: (id int, k int, g string, v float), n rows in 128-row groups.
// (k, g) takes ten values, so each is shared by about n/10 rows that differ
// in id and v.
func tieTable(n int) *colstore.MemTable {
	schema := data.NewSchema(
		data.ColumnDef{Name: "id", Type: data.Int64},
		data.ColumnDef{Name: "k", Type: data.Int64},
		data.ColumnDef{Name: "g", Type: data.String},
		data.ColumnDef{Name: "v", Type: data.Float64},
	)
	t := colstore.NewMemTable("ties", schema, 128)
	b := data.NewBatch(schema, n)
	for i := 0; i < n; i++ {
		b.Cols[0].I = append(b.Cols[0].I, int64(i))
		b.Cols[1].I = append(b.Cols[1].I, int64(i%5))
		b.Cols[2].S = append(b.Cols[2].S, []string{"p", "q"}[i/7%2])
		b.Cols[3].F = append(b.Cols[3].F, float64(i*7919%1000)/4)
	}
	b.SetLen(n)
	t.Append(b)
	return t
}

// TestExtSortTiesIndependentOfWorkers: rows tied on every key come out in one
// order, whatever the worker count and whether runs spill, and a Limit that
// cuts inside a tie group keeps the same rows.
func TestExtSortTiesIndependentOfWorkers(t *testing.T) {
	tbl := tieTable(5000)
	// (k, g desc) groups hold 500 rows each: 1234 ends inside the third.
	plan := &ExtSort{Child: NewScan(tbl), Keys: []SortKey{{Col: "k"}, {Col: "g", Desc: true}}, Limit: 1234}
	var ref *data.Batch
	for _, workers := range []int{1, 2, 8} {
		for _, spill := range []bool{false, true} {
			ctx := testCtx(workers)
			if spill {
				ctx = spillCtx(workers, 64)
			}
			out, err := Collect(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			if spill && ctx.Stats.Get(metrics.SpilledBytes) == 0 {
				t.Fatalf("%d workers: no run spilled under a 64 KiB budget", workers)
			}
			if out.Len() != plan.Limit {
				t.Fatalf("%d workers, spill %v: %d rows", workers, spill, out.Len())
			}
			if ref == nil {
				ref = out
				continue
			}
			for c := range out.Cols {
				a, b := &ref.Cols[c], &out.Cols[c]
				if !slices.Equal(a.I, b.I) || !slices.Equal(a.F, b.F) || !slices.Equal(a.S, b.S) {
					t.Fatalf("%d workers, spill %v: column %s differs from 1 worker in memory",
						workers, spill, out.Schema.Cols[c].Name)
				}
			}
		}
	}
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
	if !slices.IsSorted(out.Cols[0].I) {
		t.Fatal("output not globally sorted")
	}
}

type sortBenchCase struct {
	name string
	rows int
	plan *ExtSort
}

// sortBenchCases are the shapes of TPC-H's largest ORDER BYs: Q16's ≈16 k
// groups under four keys (int desc, string, string, int), and Q10's ≈4 k
// customers cut to the top 20 by revenue; and of its smallest, Q1's 8 rows
// by two string keys, whose ns/op is the sort's fixed cost.
func sortBenchCases() []sortBenchCase {
	q16 := data.NewSchema(
		data.ColumnDef{Name: "p_brand", Type: data.String},
		data.ColumnDef{Name: "p_type", Type: data.String},
		data.ColumnDef{Name: "p_size", Type: data.Int64},
		data.ColumnDef{Name: "supplier_cnt", Type: data.Int64},
	)
	const q16Rows = 16 << 10
	t16 := colstore.NewMemTable("q16", q16, 0)
	b := data.NewBatch(q16, q16Rows)
	for i := 0; i < q16Rows; i++ {
		b.Cols[0].S = append(b.Cols[0].S, fmt.Sprintf("Brand#%d%d", 1+i%5, 1+i/5%5))
		b.Cols[1].S = append(b.Cols[1].S, fmt.Sprintf("%s %s TIN", []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}[i/25%6],
			[]string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}[i/150%5]))
		b.Cols[2].I = append(b.Cols[2].I, int64(1+i*7%50))
		b.Cols[3].I = append(b.Cols[3].I, int64(i*31%13))
	}
	b.SetLen(q16Rows)
	t16.Append(b)

	q10 := data.NewSchema(
		data.ColumnDef{Name: "c_custkey", Type: data.Int64},
		data.ColumnDef{Name: "c_name", Type: data.String},
		data.ColumnDef{Name: "revenue", Type: data.Float64},
		data.ColumnDef{Name: "c_acctbal", Type: data.Float64},
		data.ColumnDef{Name: "n_name", Type: data.String},
		data.ColumnDef{Name: "c_phone", Type: data.String},
	)
	const q10Rows = 4 << 10
	t10 := colstore.NewMemTable("q10", q10, 0)
	b = data.NewBatch(q10, q10Rows)
	for i := 0; i < q10Rows; i++ {
		b.Cols[0].I = append(b.Cols[0].I, int64(i))
		b.Cols[1].S = append(b.Cols[1].S, fmt.Sprintf("Customer#%09d", i))
		b.Cols[2].F = append(b.Cols[2].F, float64(i*7919%100003)*3.25)
		b.Cols[3].F = append(b.Cols[3].F, float64(i%9999)-999.99)
		b.Cols[4].S = append(b.Cols[4].S, []string{"FRANCE", "GERMANY", "JAPAN", "PERU"}[i%4])
		b.Cols[5].S = append(b.Cols[5].S, fmt.Sprintf("%02d-%03d-%03d-%04d", 10+i%25, i%1000, i*7%1000, i%10000))
	}
	b.SetLen(q10Rows)
	t10.Append(b)

	// Q1's and Q4's ORDER BYs sort a handful of aggregated rows: what they
	// measure is the sort's fixed cost per query.
	q1 := data.NewSchema(
		data.ColumnDef{Name: "l_returnflag", Type: data.String},
		data.ColumnDef{Name: "l_linestatus", Type: data.String},
		data.ColumnDef{Name: "sum_qty", Type: data.Float64},
	)
	const q1Rows = 8
	t1 := colstore.NewMemTable("q1", q1, 0)
	b = data.NewBatch(q1, q1Rows)
	for i := 0; i < q1Rows; i++ {
		b.Cols[0].S = append(b.Cols[0].S, []string{"R", "N", "A", "N"}[i%4])
		b.Cols[1].S = append(b.Cols[1].S, []string{"F", "O"}[i/4])
		b.Cols[2].F = append(b.Cols[2].F, float64(i*37%11)*1e6)
	}
	b.SetLen(q1Rows)
	t1.Append(b)

	return []sortBenchCase{
		{"Q16", q16Rows, &ExtSort{Child: NewScan(t16), Keys: []SortKey{
			{Col: "supplier_cnt", Desc: true}, {Col: "p_brand"}, {Col: "p_type"}, {Col: "p_size"}}}},
		{"Q10Limit20", q10Rows, &ExtSort{Child: NewScan(t10), Keys: []SortKey{{Col: "revenue", Desc: true}}, Limit: 20}},
		{"Rows8", q1Rows, &ExtSort{Child: NewScan(t1), Keys: []SortKey{{Col: "l_returnflag"}, {Col: "l_linestatus"}}}},
	}
}

// BenchmarkExtSortInMemory sorts TPC-H-shaped ORDER BY inputs on two workers
// with no budget, through Collect: run generation, the top-k of a Limit and
// the merge. It reports ns per input row.
func BenchmarkExtSortInMemory(b *testing.B) {
	for _, bc := range sortBenchCases() {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Collect(testCtx(2), bc.plan); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.rows), "ns/row")
		})
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

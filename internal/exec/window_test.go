package exec

import (
	"fmt"
	"testing"

	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/metrics"
)

// windowTable: (grp int, seq int, val float) with rows shuffled across
// groups so window partitions interleave in the input.
func windowTable(groups, perGroup int) *colstore.MemTable {
	schema := data.NewSchema(
		data.ColumnDef{Name: "grp", Type: data.Int64},
		data.ColumnDef{Name: "seq", Type: data.Int64},
		data.ColumnDef{Name: "val", Type: data.Float64},
	)
	t := colstore.NewMemTable("w", schema, 512)
	b := data.NewBatch(schema, groups*perGroup)
	for s := 0; s < perGroup; s++ {
		for g := 0; g < groups; g++ {
			b.Cols[0].I = append(b.Cols[0].I, int64(g))
			b.Cols[1].I = append(b.Cols[1].I, int64(s))
			b.Cols[2].F = append(b.Cols[2].F, float64(g*1000+s))
		}
	}
	b.SetLen(groups * perGroup)
	t.Append(b)
	return t
}

func runWindow(t *testing.T, ctx *Ctx, groups, perGroup int, funcs []WindowSpec) *data.Batch {
	t.Helper()
	w := NewWindow(NewScan(windowTable(groups, perGroup)),
		[]string{"grp"}, []SortKey{{Col: "seq"}}, funcs)
	out, err := Collect(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func allWindowFuncs() []WindowSpec {
	return []WindowSpec{
		{Func: WRowNumber, As: "rn"},
		{Func: WRank, As: "rk"},
		{Func: WSum, Col: "val", As: "running_sum", Frame: FrameRunning},
		{Func: WSum, Col: "val", As: "total", Frame: FrameAll},
		{Func: WAvg, Col: "val", As: "sliding_avg", Frame: FrameRows, Lo: -1, Hi: 1},
		{Func: WMin, Col: "val", As: "sliding_min", Frame: FrameRows, Lo: -2, Hi: 0},
		{Func: WMax, Col: "val", As: "max_all", Frame: FrameAll},
		{Func: WCount, Col: "val", As: "cnt", Frame: FrameRunning},
	}
}

func checkWindow(t *testing.T, out *data.Batch, groups, perGroup int) {
	t.Helper()
	if out.Len() != groups*perGroup {
		t.Fatalf("rows = %d, want %d", out.Len(), groups*perGroup)
	}
	s := out.Schema
	gi, si := s.MustIndex("grp"), s.MustIndex("seq")
	for r := 0; r < out.Len(); r++ {
		g := out.Cols[gi].I[r]
		seq := int(out.Cols[si].I[r])
		base := float64(g * 1000)
		val := func(k int) float64 { return base + float64(k) }

		if rn := out.Cols[s.MustIndex("rn")].I[r]; rn != int64(seq+1) {
			t.Fatalf("g%d seq%d: row_number %d, want %d", g, seq, rn, seq+1)
		}
		if rk := out.Cols[s.MustIndex("rk")].I[r]; rk != int64(seq+1) {
			t.Fatalf("g%d seq%d: rank %d", g, seq, rk)
		}
		var wantRun float64
		for k := 0; k <= seq; k++ {
			wantRun += val(k)
		}
		if got := out.Cols[s.MustIndex("running_sum")].F[r]; !closeTo(got, wantRun) {
			t.Fatalf("g%d seq%d: running sum %v, want %v", g, seq, got, wantRun)
		}
		var wantTotal float64
		for k := 0; k < perGroup; k++ {
			wantTotal += val(k)
		}
		if got := out.Cols[s.MustIndex("total")].F[r]; !closeTo(got, wantTotal) {
			t.Fatalf("g%d seq%d: total %v, want %v", g, seq, got, wantTotal)
		}
		lo, hi := seq-1, seq+1
		if lo < 0 {
			lo = 0
		}
		if hi > perGroup-1 {
			hi = perGroup - 1
		}
		var sum float64
		for k := lo; k <= hi; k++ {
			sum += val(k)
		}
		if got := out.Cols[s.MustIndex("sliding_avg")].F[r]; !closeTo(got, sum/float64(hi-lo+1)) {
			t.Fatalf("g%d seq%d: sliding avg %v", g, seq, got)
		}
		mlo := seq - 2
		if mlo < 0 {
			mlo = 0
		}
		if got := out.Cols[s.MustIndex("sliding_min")].F[r]; got != val(mlo) {
			t.Fatalf("g%d seq%d: sliding min %v, want %v", g, seq, got, val(mlo))
		}
		if got := out.Cols[s.MustIndex("max_all")].F[r]; got != val(perGroup-1) {
			t.Fatalf("g%d seq%d: max %v", g, seq, got)
		}
		if got := out.Cols[s.MustIndex("cnt")].I[r]; got != int64(seq+1) {
			t.Fatalf("g%d seq%d: count %d", g, seq, got)
		}
	}
}

func TestWindowInMemory(t *testing.T) {
	checkWindow(t, runWindow(t, testCtx(2), 50, 20, allWindowFuncs()), 50, 20)
}

func TestWindowSpilling(t *testing.T) {
	ctx := spillCtx(2, 64)
	out := runWindow(t, ctx, 200, 40, allWindowFuncs())
	checkWindow(t, out, 200, 40)
	if ctx.Stats.Get(metrics.SpilledBytes) == 0 {
		t.Fatal("window under 64KB budget did not spill")
	}
}

func TestWindowModesEquivalent(t *testing.T) {
	ref := joinRowSet(t, runWindow(t, testCtx(1), 30, 15, allWindowFuncs()))
	for name, ctx := range map[string]*Ctx{
		"parallel": testCtx(3),
		"spill":    spillCtx(2, 48),
	} {
		got := joinRowSet(t, runWindow(t, ctx, 30, 15, allWindowFuncs()))
		if !sameRowSet(ref, got) {
			t.Fatalf("%s: window results differ", name)
		}
	}
}

func TestWindowRankWithTies(t *testing.T) {
	schema := data.NewSchema(
		data.ColumnDef{Name: "g", Type: data.Int64},
		data.ColumnDef{Name: "k", Type: data.Int64},
	)
	tbl := colstore.NewMemTable("ties", schema, 64)
	b := data.NewBatch(schema, 5)
	b.Cols[0].I = []int64{1, 1, 1, 1, 1}
	b.Cols[1].I = []int64{10, 10, 20, 20, 30}
	b.SetLen(5)
	tbl.Append(b)
	w := NewWindow(NewScan(tbl), []string{"g"}, []SortKey{{Col: "k"}},
		[]WindowSpec{{Func: WRank, As: "rk"}, {Func: WRowNumber, As: "rn"}})
	out, err := Collect(testCtx(1), w)
	if err != nil {
		t.Fatal(err)
	}
	// Ranks: 1,1,3,3,5 for keys 10,10,20,20,30.
	want := map[int64]int64{10: 1, 20: 3, 30: 5}
	for r := 0; r < out.Len(); r++ {
		k := out.Cols[1].I[r]
		if out.Cols[2].I[r] != want[k] {
			t.Fatalf("key %d rank = %d, want %d", k, out.Cols[2].I[r], want[k])
		}
	}
}

func TestWindowSinglePartition(t *testing.T) {
	// Empty PARTITION BY is the degenerate whole-input window.
	tbl := windowTable(1, 10)
	w := NewWindow(NewScan(tbl), nil, []SortKey{{Col: "seq"}},
		[]WindowSpec{{Func: WRowNumber, As: "rn"}})
	out, err := Collect(testCtx(2), w)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 {
		t.Fatalf("rows = %d", out.Len())
	}
	seen := map[int64]bool{}
	for r := 0; r < out.Len(); r++ {
		rn := out.Cols[out.Schema.MustIndex("rn")].I[r]
		if seen[rn] {
			t.Fatalf("duplicate row number %d", rn)
		}
		seen[rn] = true
	}
}

func TestWindowSchemaNaming(t *testing.T) {
	tbl := windowTable(2, 2)
	w := NewWindow(NewScan(tbl), []string{"grp"}, []SortKey{{Col: "seq"}},
		[]WindowSpec{{Func: WSum, Col: "val"}})
	if w.Schema().Cols[3].Name != "w0" {
		t.Fatalf("default name = %q", w.Schema().Cols[3].Name)
	}
	if w.Schema().Cols[3].Type != data.Float64 {
		t.Fatal("sum type")
	}
}

func BenchmarkWindowSlidingMinMax(b *testing.B) {
	tbl := windowTable(10, 1000)
	funcs := []WindowSpec{
		{Func: WMin, Col: "val", As: "m", Frame: FrameRows, Lo: -50, Hi: 50},
		{Func: WMax, Col: "val", As: "M", Frame: FrameRows, Lo: -50, Hi: 50},
	}
	ctx := testCtx(2)
	b.SetBytes(int64(10 * 1000 * 24))
	for i := 0; i < b.N; i++ {
		w := NewWindow(NewScan(tbl), []string{"grp"}, []SortKey{{Col: "seq"}}, funcs)
		if _, err := Collect(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
	_ = fmt.Sprint()
}

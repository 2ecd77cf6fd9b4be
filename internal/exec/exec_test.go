package exec

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
)

// --- fixtures ---

func testCtx(workers int) *Ctx {
	return &Ctx{Workers: workers, Stats: &Stats{}}
}

// spillCtx returns a context with a tight budget and a fast array so that
// materializing operators are forced to partition and spill.
func spillCtx(workers int, budgetKB int64) *Ctx {
	arr := nvmesim.New(2, nvmesim.DeviceSpec{
		ReadBandwidth:  4e9,
		WriteBandwidth: 2e9,
		Latency:        20 * time.Microsecond,
	}, nvmesim.RealClock{})
	return &Ctx{
		Workers:     workers,
		Budget:      pages.NewBudget(budgetKB << 10),
		PageSize:    8 << 10,
		Partitions:  16,
		PartitionAt: 0.3,
		Spill:       &core.SpillConfig{Array: arr},
		Stats:       &Stats{},
	}
}

// ordersTable: (okey int, cust int, total float, flag string)
func ordersTable(n int) *colstore.MemTable {
	schema := data.NewSchema(
		data.ColumnDef{Name: "okey", Type: data.Int64},
		data.ColumnDef{Name: "cust", Type: data.Int64},
		data.ColumnDef{Name: "total", Type: data.Float64},
		data.ColumnDef{Name: "flag", Type: data.String},
	)
	t := colstore.NewMemTable("orders", schema, 512)
	b := data.NewBatch(schema, n)
	for i := 0; i < n; i++ {
		b.Cols[0].I = append(b.Cols[0].I, int64(i))
		b.Cols[1].I = append(b.Cols[1].I, int64(i%100))
		b.Cols[2].F = append(b.Cols[2].F, float64(i)*0.5)
		b.Cols[3].S = append(b.Cols[3].S, []string{"A", "B", "C"}[i%3])
	}
	b.SetLen(n)
	t.Append(b)
	return t
}

// custTable: (ckey int, name string) for keys 0..n-1.
func custTable(n int) *colstore.MemTable {
	schema := data.NewSchema(
		data.ColumnDef{Name: "ckey", Type: data.Int64},
		data.ColumnDef{Name: "name", Type: data.String},
	)
	t := colstore.NewMemTable("cust", schema, 512)
	b := data.NewBatch(schema, n)
	for i := 0; i < n; i++ {
		b.Cols[0].I = append(b.Cols[0].I, int64(i))
		b.Cols[1].S = append(b.Cols[1].S, fmt.Sprintf("cust-%d", i))
	}
	b.SetLen(n)
	t.Append(b)
	return t
}

// --- expression tests ---

func exprBatch() *data.Batch {
	schema := data.NewSchema(
		data.ColumnDef{Name: "i", Type: data.Int64},
		data.ColumnDef{Name: "f", Type: data.Float64},
		data.ColumnDef{Name: "s", Type: data.String},
		data.ColumnDef{Name: "d", Type: data.Date},
	)
	b := data.NewBatch(schema, 2)
	b.Cols[0].I = []int64{10, -3}
	b.Cols[1].F = []float64{2.5, 0.5}
	b.Cols[2].S = []string{"PROMO BRUSHED TIN", "SMALL PLATED BRASS"}
	b.Cols[3].I = []int64{data.ParseDate("1995-03-15"), data.ParseDate("1998-11-02")}
	b.SetLen(2)
	return b
}

// evalI, evalF, evalS and evalBool evaluate e over every row of b.
func evalI(e Expr, b *data.Batch) []int64 {
	out := make([]int64, b.Len())
	e.EvalI(b, nil, out)
	return out
}

func evalF(e Expr, b *data.Batch) []float64 {
	out := make([]float64, b.Len())
	e.EvalF(b, nil, out)
	return out
}

func evalS(e Expr, b *data.Batch) []string {
	out := make([]string, b.Len())
	e.EvalS(b, nil, out)
	return out
}

func evalBool(e Expr, b *data.Batch) []bool {
	out := make([]bool, b.Len())
	for _, r := range e.EvalBool(b, nil, nil) {
		out[r] = true
	}
	return out
}

func TestExprArithmetic(t *testing.T) {
	b := exprBatch()
	s := b.Schema
	e := Add(Col(s, "i"), ConstInt(5))
	if v := evalI(e, b); v[0] != 15 || v[1] != 2 {
		t.Fatal("int add")
	}
	m := Mul(Col(s, "f"), Sub(ConstFloat(1), ConstFloat(0.1)))
	if v := evalF(m, b); v[0] != 2.25 {
		t.Fatalf("float mul: %v", v[0])
	}
	// Mixed int/float promotes.
	mx := Add(Col(s, "i"), Col(s, "f"))
	if mx.Type != data.Float64 || evalF(mx, b)[0] != 12.5 {
		t.Fatal("promotion")
	}
	d := Div(Col(s, "i"), ConstInt(4))
	if evalF(d, b)[0] != 2.5 {
		t.Fatal("div is float division")
	}
}

func TestExprComparisons(t *testing.T) {
	b := exprBatch()
	s := b.Schema
	if v := evalBool(Cmp(">", Col(s, "i"), ConstInt(0)), b); !v[0] || v[1] {
		t.Fatal("int cmp")
	}
	if !evalBool(Cmp("=", Col(s, "s"), ConstStr("PROMO BRUSHED TIN")), b)[0] {
		t.Fatal("str eq")
	}
	if !evalBool(Cmp("<", Col(s, "d"), ConstDate("1996-01-01")), b)[0] {
		t.Fatal("date cmp")
	}
	if !evalBool(And(ConstBool(true), Cmp("<>", Col(s, "i"), ConstInt(0))), b)[0] {
		t.Fatal("and")
	}
	if evalBool(Or(ConstBool(false), Cmp("=", Col(s, "i"), ConstInt(99))), b)[0] {
		t.Fatal("or")
	}
	if !evalBool(Not(ConstBool(false)), b)[0] {
		t.Fatal("not")
	}
}

func TestExprLike(t *testing.T) {
	b := exprBatch()
	s := b.Schema
	cases := []struct {
		pattern string
		want    [2]bool
	}{
		{"PROMO%", [2]bool{true, false}},
		{"%BRASS", [2]bool{false, true}},
		{"%PLATED%", [2]bool{false, true}},
		{"PROMO BRUSHED TIN", [2]bool{true, false}},
		{"%PROMO%TIN%", [2]bool{true, false}},
		{"P_OMO%", [2]bool{true, false}},
		{"%XYZ%", [2]bool{false, false}},
	}
	for _, c := range cases {
		got := evalBool(Like(Col(s, "s"), c.pattern), b)
		for r := 0; r < 2; r++ {
			if got[r] != c.want[r] {
				t.Errorf("LIKE %q row %d = %v, want %v", c.pattern, r, got[r], c.want[r])
			}
		}
	}
}

func TestExprMisc(t *testing.T) {
	b := exprBatch()
	s := b.Schema
	if evalI(YearOf(Col(s, "d")), b)[1] != 1998 {
		t.Fatal("year")
	}
	if evalS(Substr(Col(s, "s"), 1, 5), b)[0] != "PROMO" {
		t.Fatal("substr")
	}
	if evalS(Substr(Col(s, "s"), 100, 5), b)[0] != "" {
		t.Fatal("substr out of range")
	}
	if !evalBool(InStr(Col(s, "s"), "PROMO BRUSHED TIN", "other"), b)[0] {
		t.Fatal("in str")
	}
	if !evalBool(InInt(Col(s, "i"), -3, 7), b)[1] {
		t.Fatal("in int")
	}
	c := Case(Cmp(">", Col(s, "i"), ConstInt(0)), Col(s, "f"), ConstFloat(0))
	if v := evalF(c, b); v[0] != 2.5 || v[1] != 0 {
		t.Fatal("case")
	}
}

// TestExprOperandLanes: a constructor given an operand of the wrong lane
// panics at construction, naming itself, instead of failing inside a worker.
func TestExprOperandLanes(t *testing.T) {
	b := exprBatch()
	s := b.Schema
	i, f, str := Col(s, "i"), Col(s, "f"), Col(s, "s")
	cases := []struct {
		name  string
		build func() Expr
	}{
		{"Like", func() Expr { return Like(i, "%x%") }},
		{"NotLike", func() Expr { return NotLike(f, "%x%") }},
		{"InStr", func() Expr { return InStr(Col(s, "d"), "x") }},
		{"Substr", func() Expr { return Substr(i, 1, 2) }},
		{"InInt", func() Expr { return InInt(str, 1) }},
		{"InInt", func() Expr { return InInt(f, 1) }},
		{"YearOf", func() Expr { return YearOf(str) }},
		{"YearOf", func() Expr { return YearOf(f) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "exec: "+c.name+" needs") {
					t.Errorf("%s over a wrong lane: panic %q, want one naming %s", c.name, msg, c.name)
				}
			}()
			c.build()
		}()
	}
	// The right lanes build.
	Like(str, "%x%")
	InStr(Substr(str, 1, 2), "PR")
	InInt(Col(s, "d"), 1)
	YearOf(Col(s, "d"))
}

// --- scan / filter / project ---

func TestScanProjectFilter(t *testing.T) {
	tbl := ordersTable(5000)
	sc := NewScan(tbl, "okey", "flag")
	sc.Filter = Cmp("=", Col(sc.Schema(), "flag"), ConstStr("A"))
	ctx := testCtx(2)
	out, err := Collect(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 5000; i++ {
		if i%3 == 0 {
			want++
		}
	}
	if out.Len() != want {
		t.Fatalf("filtered scan: %d rows, want %d", out.Len(), want)
	}
	if ctx.Stats.Get(metrics.ScannedRows) != 5000 {
		t.Fatalf("scanned rows stat = %d", ctx.Stats.Get(metrics.ScannedRows))
	}
}

func TestProjectExpressions(t *testing.T) {
	tbl := ordersTable(100)
	sc := NewScan(tbl, "okey", "total")
	p := NewProject(sc, []string{"okey", "double"}, []Expr{
		Col(sc.Schema(), "okey"),
		Mul(Col(sc.Schema(), "total"), ConstFloat(2)),
	})
	out, err := Collect(testCtx(1), p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 100 {
		t.Fatalf("rows: %d", out.Len())
	}
	for r := 0; r < out.Len(); r++ {
		if out.Cols[1].F[r] != float64(out.Cols[0].I[r]) {
			t.Fatalf("row %d: double %v != okey %v", r, out.Cols[1].F[r], out.Cols[0].I[r])
		}
	}
}

// --- joins ---

// refInnerJoin computes the expected (cust, name) match count per key.
func runJoin(t *testing.T, ctx *Ctx, kind JoinKind, grace bool, nOrders, nCust int) *data.Batch {
	t.Helper()
	orders := ordersTable(nOrders)
	cust := custTable(nCust)
	ctx.Grace = grace
	out, err := Collect(ctx, NewJoin(kind, NewScan(cust), []string{"ckey"}, NewScan(orders, "okey", "cust"), []string{"cust"}))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestInnerJoin(t *testing.T) {
	// cust keys 0..49; orders cust = i%100 → half the orders match.
	out := runJoin(t, testCtx(2), Inner, false, 10000, 50)
	if out.Len() != 5000 {
		t.Fatalf("inner join rows = %d, want 5000", out.Len())
	}
	// Verify the join columns line up.
	ci := out.Schema.MustIndex("cust")
	ki := out.Schema.MustIndex("ckey")
	ni := out.Schema.MustIndex("name")
	for r := 0; r < out.Len(); r++ {
		if out.Cols[ci].I[r] != out.Cols[ki].I[r] {
			t.Fatalf("row %d: key mismatch", r)
		}
		if out.Cols[ni].S[r] != fmt.Sprintf("cust-%d", out.Cols[ki].I[r]) {
			t.Fatalf("row %d: payload mismatch", r)
		}
	}
}

func TestSemiAntiJoin(t *testing.T) {
	semi := runJoin(t, testCtx(2), Semi, false, 10000, 50)
	if semi.Len() != 5000 {
		t.Fatalf("semi join rows = %d, want 5000", semi.Len())
	}
	anti := runJoin(t, testCtx(2), Anti, false, 10000, 50)
	if anti.Len() != 5000 {
		t.Fatalf("anti join rows = %d, want 5000", anti.Len())
	}
	for r := 0; r < anti.Len(); r++ {
		if anti.Cols[1].I[r] < 50 {
			t.Fatalf("anti join emitted matching row cust=%d", anti.Cols[1].I[r])
		}
	}
}

func TestOuterJoin(t *testing.T) {
	out := runJoin(t, testCtx(2), Outer, false, 10000, 50)
	if out.Len() != 10000 {
		t.Fatalf("outer join rows = %d, want 10000", out.Len())
	}
	ni := out.Schema.MustIndex("name")
	padded := 0
	for r := 0; r < out.Len(); r++ {
		if out.IsNull(ni, r) {
			padded++
		}
	}
	if padded != 5000 {
		t.Fatalf("padded rows = %d, want 5000", padded)
	}
}

func TestJoinDuplicateBuildKeys(t *testing.T) {
	// Build side with duplicate keys: every probe row matches twice.
	schema := data.NewSchema(
		data.ColumnDef{Name: "k", Type: data.Int64},
		data.ColumnDef{Name: "tag", Type: data.String},
	)
	bt := colstore.NewMemTable("dup", schema, 64)
	b := data.NewBatch(schema, 20)
	for i := 0; i < 10; i++ {
		for c := 0; c < 2; c++ {
			b.Cols[0].I = append(b.Cols[0].I, int64(i))
			b.Cols[1].S = append(b.Cols[1].S, fmt.Sprintf("t%d", c))
		}
	}
	b.SetLen(20)
	bt.Append(b)

	probe := custTable(10)
	j := NewJoin(Inner, NewScan(bt), []string{"k"}, NewScan(probe), []string{"ckey"})
	out, err := Collect(testCtx(2), j)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 20 {
		t.Fatalf("duplicate-key join rows = %d, want 20", out.Len())
	}
}

func joinRowSet(t *testing.T, b *data.Batch) map[string]int {
	t.Helper()
	out := map[string]int{}
	for r := 0; r < b.Len(); r++ {
		key := ""
		for c := range b.Cols {
			col := &b.Cols[c]
			if col.Null != nil && col.Null[r] {
				key += "|NULL"
				continue
			}
			switch col.Type {
			case data.Float64:
				key += fmt.Sprintf("|%v", col.F[r])
			case data.String:
				key += "|" + col.S[r]
			default:
				key += fmt.Sprintf("|%d", col.I[r])
			}
		}
		out[key]++
	}
	return out
}

func sameRowSet(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestJoinModesEquivalent is the central unified-operator invariant: every
// configuration (in-memory, spilling, grace, always-partition) produces the
// same multiset of rows for every join kind.
func TestJoinModesEquivalent(t *testing.T) {
	for _, kind := range []JoinKind{Inner, Semi, Anti, Outer} {
		ref := joinRowSet(t, runJoin(t, testCtx(2), kind, false, 8000, 70))
		configs := map[string]func() *data.Batch{
			"spill":       func() *data.Batch { return runJoin(t, spillCtx(2, 96), kind, false, 8000, 70) },
			"grace":       func() *data.Batch { return runJoin(t, testCtx(2), kind, true, 8000, 70) },
			"grace-spill": func() *data.Batch { return runJoin(t, spillCtx(2, 96), kind, true, 8000, 70) },
			"always-partition": func() *data.Batch {
				ctx := testCtx(2)
				ctx.Mode = core.ModeAlwaysPartition
				return runJoin(t, ctx, kind, false, 8000, 70)
			},
		}
		for name, fn := range configs {
			got := joinRowSet(t, fn())
			if !sameRowSet(ref, got) {
				t.Fatalf("kind %d config %s: row set differs from in-memory reference (%d vs %d distinct)", kind, name, len(got), len(ref))
			}
		}
	}
}

func TestJoinActuallySpills(t *testing.T) {
	ctx := spillCtx(2, 64)
	runJoin(t, ctx, Inner, false, 20000, 5000)
	if ctx.Stats.Get(metrics.SpilledBytes) == 0 {
		t.Fatalf("join under a %d-byte budget did not spill: it peaked at %d bytes (%.1f× the budget)",
			ctx.Budget.Limit(), ctx.Budget.Peak(), float64(ctx.Budget.Peak())/float64(ctx.Budget.Limit()))
	}
	if ctx.Stats.Get(metrics.SpillReadBytes) == 0 {
		t.Fatal("join spilled but never read back")
	}
	// What the budget cannot reclaim is the active set fanOut allowed, once
	// for the build side and once for the probe side.
	parts, pageSize := ctx.fanOut()
	if slack := int64(2 * ctx.Workers * parts * pageSize); ctx.Budget.Peak() > ctx.Budget.Limit()+slack {
		t.Fatalf("join peaked at %d bytes: over its %d-byte budget by more than two active sets of %d × %d × %d bytes",
			ctx.Budget.Peak(), ctx.Budget.Limit(), ctx.Workers, parts, pageSize)
	}
}

// --- aggregation ---

func runAgg(t *testing.T, ctx *Ctx, disablePre bool, n int) *data.Batch {
	t.Helper()
	tbl := ordersTable(n)
	sc := NewScan(tbl, "cust", "total", "flag")
	agg := NewAgg(sc, []string{"cust"}, []AggSpec{
		{Func: Sum, Col: "total", As: "sum_total"},
		{Func: CountStar, As: "cnt"},
		{Func: Min, Col: "flag", As: "min_flag"},
		{Func: Max, Col: "total", As: "max_total"},
		{Func: Avg, Col: "total", As: "avg_total"},
	})
	ctx.Grace = disablePre
	out, err := Collect(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func checkAggResult(t *testing.T, out *data.Batch, n int) {
	t.Helper()
	if out.Len() != 100 {
		t.Fatalf("groups = %d, want 100", out.Len())
	}
	perGroup := n / 100
	for r := 0; r < out.Len(); r++ {
		cust := out.Cols[0].I[r]
		if cnt := out.Cols[2].I[r]; cnt != int64(perGroup) {
			t.Fatalf("group %d count = %d, want %d", cust, cnt, perGroup)
		}
		// sum of (cust + 100k)*0.5 for k = 0..perGroup-1
		var want float64
		var wantMax float64
		for k := 0; k < perGroup; k++ {
			v := float64(cust+int64(100*k)) * 0.5
			want += v
			if v > wantMax {
				wantMax = v
			}
		}
		if got := out.Cols[1].F[r]; !closeTo(got, want) {
			t.Fatalf("group %d sum = %v, want %v", cust, got, want)
		}
		if got := out.Cols[4].F[r]; !closeTo(got, wantMax) {
			t.Fatalf("group %d max = %v, want %v", cust, got, wantMax)
		}
		if got := out.Cols[5].F[r]; !closeTo(got, want/float64(perGroup)) {
			t.Fatalf("group %d avg = %v", cust, got)
		}
		// Rows of group c have okey = c, c+100, c+200, ... and flag =
		// okey%3; since 100%3 = 1 the flags rotate, so min is "A" for
		// any group with at least 3 members.
		if got := out.Cols[3].S[r]; got != "A" {
			t.Fatalf("group %d min flag = %q, want A", cust, got)
		}
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	return d <= 1e-6*(scale+1)
}

func TestAggInMemory(t *testing.T) {
	checkAggResult(t, runAgg(t, testCtx(2), false, 10000), 10000)
}

func TestAggNoPreAgg(t *testing.T) {
	checkAggResult(t, runAgg(t, testCtx(2), true, 10000), 10000)
}

func TestAggSpilling(t *testing.T) {
	ctx := spillCtx(2, 64)
	checkAggResult(t, runAgg(t, ctx, true, 20000), 20000)
	if ctx.Stats.Get(metrics.SpilledBytes) == 0 {
		t.Fatal("aggregation under 64KB budget did not spill")
	}
}

func TestAggHighCardinalityBypass(t *testing.T) {
	// Group by okey: every row its own group — triggers the bypass and,
	// with a small budget, heavy spilling (the §6.3 microbenchmark shape).
	ctx := spillCtx(2, 128)
	tbl := ordersTable(30000)
	sc := NewScan(tbl, "okey", "total")
	agg := NewAgg(sc, []string{"okey"}, []AggSpec{{Func: Sum, Col: "total", As: "s"}})
	out, err := Collect(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 30000 {
		t.Fatalf("groups = %d, want 30000", out.Len())
	}
	if ctx.Stats.Get(metrics.SpilledBytes) == 0 {
		t.Fatal("high-cardinality aggregation did not spill")
	}
	seen := map[int64]bool{}
	for r := 0; r < out.Len(); r++ {
		k := out.Cols[0].I[r]
		if seen[k] {
			t.Fatalf("group %d emitted twice (spilled/global overlap)", k)
		}
		seen[k] = true
		if !closeTo(out.Cols[1].F[r], float64(k)*0.5) {
			t.Fatalf("group %d sum wrong", k)
		}
	}
}

func TestAggCountNulls(t *testing.T) {
	// count(col) skips NULLs (outer-join downstream, Q13 shape).
	orders := ordersTable(900)
	cust := custTable(30)
	j := NewJoin(Outer, NewScan(orders, "okey", "cust"), []string{"cust"}, NewScan(cust), []string{"ckey"})
	agg := NewAgg(j, []string{"ckey"}, []AggSpec{
		{Func: Count, Col: "okey", As: "c_count"},
		{Func: CountStar, As: "rows"},
	})
	out, err := Collect(testCtx(2), agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 30 {
		t.Fatalf("groups = %d", out.Len())
	}
	for r := 0; r < out.Len(); r++ {
		ck := out.Cols[0].I[r]
		wantCount := int64(0)
		if ck < 30 { // custs 0..29 all match orders cust=i%100
			wantCount = 9
		}
		if out.Cols[1].I[r] != wantCount {
			t.Fatalf("cust %d count = %d, want %d", ck, out.Cols[1].I[r], wantCount)
		}
		if wantCount == 0 && out.Cols[2].I[r] != 1 {
			t.Fatalf("cust %d rows = %d, want 1 padded row", ck, out.Cols[2].I[r])
		}
	}
}

// TestAggUngroupedOverNothing: an aggregate without GROUP BY is one row even
// when its input has none — counts zero, the others as a group that saw no
// value — at any worker count.
func TestAggUngroupedOverNothing(t *testing.T) {
	empty := NewScan(ordersTable(0))
	for _, workers := range []int{1, 2, 8} {
		out, err := Collect(testCtx(workers), NewAgg(empty, nil, []AggSpec{
			{Func: CountStar, As: "n"},
			{Func: Sum, Col: "total", As: "s"},
			{Func: Min, Col: "flag", As: "m"},
		}))
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 1 || out.Cols[0].I[0] != 0 || out.Cols[1].F[0] != 0 || out.Cols[2].S[0] != "" {
			t.Fatalf("%d workers: %d rows %v, want the one row (0, 0, \"\")", workers, out.Len(), joinRowSet(t, out))
		}
		// With a GROUP BY there is no group to report.
		out, err = Collect(testCtx(workers), NewAgg(empty, []string{"cust"}, []AggSpec{{Func: CountStar, As: "n"}}))
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 0 {
			t.Fatalf("%d workers: grouped aggregate over nothing returned %d rows", workers, out.Len())
		}
	}
}

func TestAggModesEquivalent(t *testing.T) {
	ref := runAgg(t, testCtx(2), false, 12000)
	refSet := joinRowSet(t, ref)
	for name, ctx := range map[string]*Ctx{
		"spill-tight": spillCtx(2, 48),
		"spill-wide":  spillCtx(2, 512),
		"single":      testCtx(1),
	} {
		got := joinRowSet(t, runAgg(t, ctx, false, 12000))
		if !sameRowSet(refSet, got) {
			t.Fatalf("%s: aggregation results differ", name)
		}
	}
	// Always-partition baseline.
	ctx := testCtx(2)
	ctx.Mode = core.ModeAlwaysPartition
	if !sameRowSet(refSet, joinRowSet(t, runAgg(t, ctx, true, 12000))) {
		t.Fatal("always-partition aggregation differs")
	}
}

// --- OOM behavior (the in-memory-only engine role) ---

func TestJoinOOMWithoutSpill(t *testing.T) {
	ctx := &Ctx{
		Workers: 2,
		Budget:  pages.NewBudget(32 << 10),
		Mode:    core.ModeNeverPartition,
		Stats:   &Stats{},
	}
	orders := ordersTable(50000)
	cust := custTable(20000)
	j := NewJoin(Inner, NewScan(cust), []string{"ckey"}, NewScan(orders, "cust"), []string{"cust"})
	if _, err := Collect(ctx, j); err != core.ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

// --- values node ---

func TestValuesNode(t *testing.T) {
	schema := data.NewSchema(data.ColumnDef{Name: "x", Type: data.Float64})
	b := data.NewBatch(schema, 1)
	b.Cols[0].F = []float64{42}
	b.SetLen(1)
	out, err := Collect(testCtx(3), &ValuesNode{Batch: b})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Cols[0].F[0] != 42 {
		t.Fatal("values node broken")
	}
}

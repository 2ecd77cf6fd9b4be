package tpch

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/chaos"
	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/exec"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
)

var (
	dbOnce sync.Once
	testDB *DB
)

// sharedDB is a small in-memory database shared across tests.
func sharedDB() *DB {
	dbOnce.Do(func() { testDB = NewMemDB(0.01) })
	return testDB
}

func memCtx() *exec.Ctx { return &exec.Ctx{Workers: 2, Stats: &exec.Stats{}} }

func spillingCtx() *exec.Ctx {
	arr := nvmesim.New(2, nvmesim.DeviceSpec{
		ReadBandwidth:  4e9,
		WriteBandwidth: 2e9,
		Latency:        20 * time.Microsecond,
	}, nvmesim.RealClock{})
	return &exec.Ctx{
		Workers:     2,
		Budget:      pages.NewBudget(512 << 10),
		PageSize:    16 << 10,
		Partitions:  16,
		PartitionAt: 0.4,
		Spill:       &core.SpillConfig{Array: arr, Compress: true},
		Stats:       &exec.Stats{},
	}
}

func runQuery(t *testing.T, ctx *exec.Ctx, q int) *data.Batch {
	t.Helper()
	node, err := BuildQuery(ctx, sharedDB(), q)
	if err != nil {
		t.Fatalf("Q%d build: %v", q, err)
	}
	out, err := exec.Collect(ctx, node)
	if err != nil {
		t.Fatalf("Q%d run: %v", q, err)
	}
	return out
}

// rowStrings renders a batch into canonical row strings (floats rounded to
// tolerate summation-order differences across configurations).
func rowStrings(b *data.Batch) []string {
	out := make([]string, b.Len())
	for r := 0; r < b.Len(); r++ {
		var sb strings.Builder
		for c := range b.Cols {
			col := &b.Cols[c]
			if col.Null != nil && col.Null[r] {
				sb.WriteString("|NULL")
				continue
			}
			switch col.Type {
			case data.Float64:
				fmt.Fprintf(&sb, "|%.4f", col.F[r])
			case data.String:
				sb.WriteString("|" + col.S[r])
			default:
				fmt.Fprintf(&sb, "|%d", col.I[r])
			}
		}
		out[r] = sb.String()
	}
	return out
}

func TestAllQueriesRun(t *testing.T) {
	for q := 1; q <= NumQueries; q++ {
		out := runQuery(t, memCtx(), q)
		// Q18's sum(l_quantity) > 300 predicate legitimately matches no
		// order at tiny scale factors; TestQ18AgainstReference checks it.
		if out.Len() == 0 && q != 18 {
			t.Errorf("Q%d returned no rows at SF 0.01", q)
		}
	}
}

// TestAllQueriesRunAtTinyScale: at SF 0.001 some subqueries select nothing
// (Q11: no German supplier among 10), and a scalar aggregate over nothing
// must still be one row, not "scalar subquery returned 0 rows".
func TestAllQueriesRunAtTinyScale(t *testing.T) {
	db := NewMemDB(0.001)
	for _, workers := range []int{1, 2} {
		for q := 1; q <= NumQueries; q++ {
			ctx := &exec.Ctx{Workers: workers, Stats: &exec.Stats{}}
			node, err := BuildQuery(ctx, db, q)
			if err != nil {
				t.Fatalf("Q%d, %d workers, build: %v", q, workers, err)
			}
			if _, err := exec.Collect(ctx, node); err != nil {
				t.Fatalf("Q%d, %d workers, run: %v", q, workers, err)
			}
			ctx.Close()
		}
	}
}

func TestQ18AgainstReference(t *testing.T) {
	db := sharedDB()
	li := db.T(Lineitem).(*colstore.MemTable)
	sums := map[int64]float64{}
	lok, qty := colI(li, "l_orderkey"), colF(li, "l_quantity")
	for r := range lok {
		sums[lok[r]] += qty[r]
	}
	want := 0
	for _, s := range sums {
		if s > 300 {
			want++
		}
	}
	out := runQuery(t, memCtx(), 18)
	if out.Len() != want {
		t.Fatalf("Q18 rows = %d, want %d", out.Len(), want)
	}
}

// TestQueriesSpillEquivalence is the paper's core correctness claim made a
// test: unified operators return identical results whether they stay in
// memory or partition, spill, and read back — prefetching, shrinking
// lookahead under budget pressure, and streaming pages into build/probe may
// change timing, never rows.
func TestQueriesSpillEquivalence(t *testing.T) {
	anyReadBack := false
	for q := 1; q <= NumQueries; q++ {
		ref := rowStrings(runQuery(t, memCtx(), q))
		spillCtx := spillingCtx()
		got := rowStrings(runQuery(t, spillCtx, q))
		if spillCtx.Stats.Get(metrics.SpillReadBytes) > 0 {
			anyReadBack = true
		}
		if len(ref) != len(got) {
			t.Errorf("Q%d: %d rows spilling vs %d in memory", q, len(got), len(ref))
			continue
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Errorf("Q%d row %d differs:\n  mem:   %s\n  spill: %s", q, i, ref[i], got[i])
				break
			}
		}
	}
	if !anyReadBack {
		t.Error("no query read back spilled pages; the comparison never exercised the partition scheduler")
	}
}

// TestQueriesOutputOrdered: every ORDER BY query's rows come out in the order
// of its own keys and within its Limit, and are the rows of the 1-worker
// in-memory run, at 1, 2 and 8 workers, in memory and under the budget of
// TestQueriesSpillEquivalence.
func TestQueriesOutputOrdered(t *testing.T) {
	ordered := 0
	for q := 1; q <= NumQueries; q++ {
		ref, first := "", true
	runs:
		for _, workers := range []int{1, 2, 8} {
			for _, spill := range []bool{false, true} {
				ctx := memCtx()
				if spill {
					ctx = spillingCtx()
				}
				ctx.Workers = workers
				node, err := BuildQuery(ctx, sharedDB(), q)
				if err != nil {
					t.Fatalf("Q%d build: %v", q, err)
				}
				s, ok := node.(*exec.ExtSort)
				if !ok {
					break runs // no ORDER BY
				}
				out, err := exec.Collect(ctx, node)
				if err != nil {
					t.Fatalf("Q%d, %d workers, spill %v: %v", q, workers, spill, err)
				}
				if s.Limit > 0 && out.Len() > s.Limit {
					t.Errorf("Q%d, %d workers, spill %v: %d rows past LIMIT %d", q, workers, spill, out.Len(), s.Limit)
				}
				for r := 1; r < out.Len(); r++ {
					if keyOrder(out, s.Keys, r-1, r) > 0 {
						t.Errorf("Q%d, %d workers, spill %v: rows %d and %d out of ORDER BY order", q, workers, spill, r-1, r)
						break
					}
				}
				fp := chaos.Fingerprint(out)
				if first {
					ref, first = fp, false
					ordered++
				} else if fp != ref {
					t.Errorf("Q%d, %d workers, spill %v: rows differ from 1 worker in memory", q, workers, spill)
				}
			}
		}
	}
	if ordered != 18 {
		t.Fatalf("%d queries end in an ORDER BY, want 18", ordered)
	}
}

// keyOrder compares rows x and y of b under keys, NULL first.
func keyOrder(b *data.Batch, keys []exec.SortKey, x, y int) int {
	for _, k := range keys {
		col := &b.Cols[b.Schema.MustIndex(k.Col)]
		xn, yn := col.Null != nil && col.Null[x], col.Null != nil && col.Null[y]
		var c int
		switch {
		case xn != yn:
			c = 1
			if xn {
				c = -1
			}
		case xn: // both NULL
		case col.Type == data.Float64:
			c = cmp.Compare(col.F[x], col.F[y])
		case col.Type == data.String:
			c = strings.Compare(col.S[x], col.S[y])
		default:
			c = cmp.Compare(col.I[x], col.I[y])
		}
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

func TestQueriesGraceEquivalence(t *testing.T) {
	// The grace-join + no-preagg baseline (Figure 2's "partitioning"
	// system) must return identical results on join/agg-heavy queries.
	for _, q := range []int{3, 5, 9, 13, 18, 21} {
		ref := rowStrings(runQuery(t, memCtx(), q))
		ctx := memCtx()
		ctx.Grace = true
		got := rowStrings(runQuery(t, ctx, q))
		if len(ref) != len(got) {
			t.Fatalf("Q%d: row count differs under grace baseline", q)
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("Q%d row %d differs under grace baseline", q, i)
			}
		}
	}
}

func TestQueriesAlwaysPartitionEquivalence(t *testing.T) {
	for _, q := range []int{1, 3, 5, 9, 13, 18} {
		ref := rowStrings(runQuery(t, memCtx(), q))
		ctx := memCtx()
		ctx.Mode = core.ModeAlwaysPartition
		got := rowStrings(runQuery(t, ctx, q))
		if len(ref) != len(got) {
			t.Fatalf("Q%d: row count differs under always-partition", q)
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("Q%d row %d differs under always-partition", q, i)
			}
		}
	}
}

// --- independent reference implementations (direct loops over columns) ---

func colF(t *colstore.MemTable, name string) []float64 {
	return t.Column(Schemas[t.Name()].MustIndex(name)).F
}
func colI(t *colstore.MemTable, name string) []int64 {
	return t.Column(Schemas[t.Name()].MustIndex(name)).I
}
func colS(t *colstore.MemTable, name string) []string {
	return t.Column(Schemas[t.Name()].MustIndex(name)).S
}

func TestQ1AgainstReference(t *testing.T) {
	db := sharedDB()
	li := db.T(Lineitem).(*colstore.MemTable)
	cutoff := data.ParseDate("1998-09-02")
	type acc struct {
		qty, price, disc, discPrice, charge float64
		n                                   int64
	}
	ref := map[string]*acc{}
	ship := colI(li, "l_shipdate")
	rf, ls := colS(li, "l_returnflag"), colS(li, "l_linestatus")
	qty, ep, dc, tax := colF(li, "l_quantity"), colF(li, "l_extendedprice"), colF(li, "l_discount"), colF(li, "l_tax")
	for r := range ship {
		if ship[r] > cutoff {
			continue
		}
		k := rf[r] + "|" + ls[r]
		a := ref[k]
		if a == nil {
			a = &acc{}
			ref[k] = a
		}
		a.qty += qty[r]
		a.price += ep[r]
		a.disc += dc[r]
		dp := ep[r] * (1 - dc[r])
		a.discPrice += dp
		a.charge += dp * (1 + tax[r])
		a.n++
	}
	out := runQuery(t, memCtx(), 1)
	if out.Len() != len(ref) {
		t.Fatalf("Q1 groups = %d, want %d", out.Len(), len(ref))
	}
	s := out.Schema
	for r := 0; r < out.Len(); r++ {
		k := out.Cols[s.MustIndex("l_returnflag")].S[r] + "|" + out.Cols[s.MustIndex("l_linestatus")].S[r]
		a := ref[k]
		if a == nil {
			t.Fatalf("Q1 unexpected group %s", k)
		}
		checks := []struct {
			col  string
			want float64
		}{
			{"sum_qty", a.qty},
			{"sum_base_price", a.price},
			{"sum_disc_price", a.discPrice},
			{"sum_charge", a.charge},
			{"avg_qty", a.qty / float64(a.n)},
			{"avg_price", a.price / float64(a.n)},
			{"avg_disc", a.disc / float64(a.n)},
		}
		for _, c := range checks {
			got := out.Cols[s.MustIndex(c.col)].F[r]
			if math.Abs(got-c.want) > 1e-6*(math.Abs(c.want)+1) {
				t.Fatalf("Q1 %s group %s = %v, want %v", c.col, k, got, c.want)
			}
		}
		if out.Cols[s.MustIndex("count_order")].I[r] != a.n {
			t.Fatalf("Q1 count group %s wrong", k)
		}
	}
}

func TestQ6AgainstReference(t *testing.T) {
	db := sharedDB()
	li := db.T(Lineitem).(*colstore.MemTable)
	lo, hi := data.ParseDate("1994-01-01"), data.ParseDate("1995-01-01")
	ship := colI(li, "l_shipdate")
	qty, ep, dc := colF(li, "l_quantity"), colF(li, "l_extendedprice"), colF(li, "l_discount")
	var want float64
	for r := range ship {
		if ship[r] >= lo && ship[r] < hi && dc[r] >= 0.0499 && dc[r] <= 0.0701 && qty[r] < 24 {
			want += ep[r] * dc[r]
		}
	}
	out := runQuery(t, memCtx(), 6)
	if out.Len() != 1 {
		t.Fatalf("Q6 rows = %d", out.Len())
	}
	got := out.Cols[0].F[0]
	if math.Abs(got-want) > 1e-6*(want+1) {
		t.Fatalf("Q6 = %v, want %v", got, want)
	}
}

func TestQ4AgainstReference(t *testing.T) {
	db := sharedDB()
	li := db.T(Lineitem).(*colstore.MemTable)
	okTbl := db.T(Orders).(*colstore.MemTable)
	hasLate := map[int64]bool{}
	lok, commit, rcpt := colI(li, "l_orderkey"), colI(li, "l_commitdate"), colI(li, "l_receiptdate")
	for r := range lok {
		if commit[r] < rcpt[r] {
			hasLate[lok[r]] = true
		}
	}
	lo, hi := data.ParseDate("1993-07-01"), data.ParseDate("1993-10-01")
	ook, odate, oprio := colI(okTbl, "o_orderkey"), colI(okTbl, "o_orderdate"), colS(okTbl, "o_orderpriority")
	want := map[string]int64{}
	for r := range ook {
		if odate[r] >= lo && odate[r] < hi && hasLate[ook[r]] {
			want[oprio[r]]++
		}
	}
	out := runQuery(t, memCtx(), 4)
	if out.Len() != len(want) {
		t.Fatalf("Q4 groups = %d, want %d", out.Len(), len(want))
	}
	for r := 0; r < out.Len(); r++ {
		prio := out.Cols[0].S[r]
		if out.Cols[1].I[r] != want[prio] {
			t.Fatalf("Q4 %s = %d, want %d", prio, out.Cols[1].I[r], want[prio])
		}
	}
}

func TestQ13AgainstReference(t *testing.T) {
	db := sharedDB()
	orders := db.T(Orders).(*colstore.MemTable)
	cust := db.T(Customer).(*colstore.MemTable)
	counts := map[int64]int64{}
	ocust, ocom := colI(orders, "o_custkey"), colS(orders, "o_comment")
	for r := range ocust {
		if i := strings.Index(ocom[r], "special"); i >= 0 && strings.Contains(ocom[r][i+7:], "requests") {
			continue
		}
		counts[ocust[r]]++
	}
	dist := map[int64]int64{}
	for _, ck := range colI(cust, "c_custkey") {
		dist[counts[ck]]++
	}
	out := runQuery(t, memCtx(), 13)
	if out.Len() != len(dist) {
		t.Fatalf("Q13 groups = %d, want %d", out.Len(), len(dist))
	}
	for r := 0; r < out.Len(); r++ {
		cc := out.Cols[0].I[r]
		if out.Cols[1].I[r] != dist[cc] {
			t.Fatalf("Q13 c_count %d: custdist %d, want %d", cc, out.Cols[1].I[r], dist[cc])
		}
	}
}

func TestQ14AgainstReference(t *testing.T) {
	db := sharedDB()
	li := db.T(Lineitem).(*colstore.MemTable)
	part := db.T(Part).(*colstore.MemTable)
	ptype := map[int64]string{}
	pk, pt := colI(part, "p_partkey"), colS(part, "p_type")
	for r := range pk {
		ptype[pk[r]] = pt[r]
	}
	lo, hi := data.ParseDate("1995-09-01"), data.ParseDate("1995-10-01")
	lpk, ship := colI(li, "l_partkey"), colI(li, "l_shipdate")
	ep, dc := colF(li, "l_extendedprice"), colF(li, "l_discount")
	var promo, total float64
	for r := range lpk {
		if ship[r] < lo || ship[r] >= hi {
			continue
		}
		rev := ep[r] * (1 - dc[r])
		total += rev
		if strings.HasPrefix(ptype[lpk[r]], "PROMO") {
			promo += rev
		}
	}
	want := 100 * promo / total
	out := runQuery(t, memCtx(), 14)
	got := out.Cols[0].F[0]
	if math.Abs(got-want) > 1e-6*(math.Abs(want)+1) {
		t.Fatalf("Q14 = %v, want %v", got, want)
	}
}

func TestQ12AgainstReference(t *testing.T) {
	db := sharedDB()
	li := db.T(Lineitem).(*colstore.MemTable)
	orders := db.T(Orders).(*colstore.MemTable)
	prio := map[int64]string{}
	ok, op := colI(orders, "o_orderkey"), colS(orders, "o_orderpriority")
	for r := range ok {
		prio[ok[r]] = op[r]
	}
	lo, hi := data.ParseDate("1994-01-01"), data.ParseDate("1995-01-01")
	lok, mode := colI(li, "l_orderkey"), colS(li, "l_shipmode")
	commit, rcpt, ship := colI(li, "l_commitdate"), colI(li, "l_receiptdate"), colI(li, "l_shipdate")
	type counts struct{ high, low float64 }
	want := map[string]*counts{}
	for r := range lok {
		if mode[r] != "MAIL" && mode[r] != "SHIP" || commit[r] >= rcpt[r] || ship[r] >= commit[r] || rcpt[r] < lo || rcpt[r] >= hi {
			continue
		}
		c := want[mode[r]]
		if c == nil {
			c = &counts{}
			want[mode[r]] = c
		}
		if p := prio[lok[r]]; p == "1-URGENT" || p == "2-HIGH" {
			c.high++
		} else {
			c.low++
		}
	}
	out := runQuery(t, memCtx(), 12)
	if out.Len() != len(want) {
		t.Fatalf("Q12 groups = %d, want %d", out.Len(), len(want))
	}
	s := out.Schema
	for r := 0; r < out.Len(); r++ {
		m := out.Cols[s.MustIndex("l_shipmode")].S[r]
		high, low := out.Cols[s.MustIndex("high_line_count")].F[r], out.Cols[s.MustIndex("low_line_count")].F[r]
		if c := want[m]; c == nil || high != c.high || low != c.low {
			t.Fatalf("Q12 %s: high %v low %v, want %+v", m, high, low, c)
		}
	}
}

func TestQ19AgainstReference(t *testing.T) {
	db := sharedDB()
	li := db.T(Lineitem).(*colstore.MemTable)
	part := db.T(Part).(*colstore.MemTable)
	type partRow struct {
		brand, container string
		size             int64
	}
	parts := map[int64]partRow{}
	pk, pb, pc, ps := colI(part, "p_partkey"), colS(part, "p_brand"), colS(part, "p_container"), colI(part, "p_size")
	for r := range pk {
		parts[pk[r]] = partRow{pb[r], pc[r], ps[r]}
	}
	branches := []struct {
		brand      string
		containers []string
		qlo, qhi   float64
		smax       int64
	}{
		{"Brand#12", []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11, 5},
		{"Brand#23", []string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 20, 10},
		{"Brand#34", []string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30, 15},
	}
	lpk, mode, instr := colI(li, "l_partkey"), colS(li, "l_shipmode"), colS(li, "l_shipinstruct")
	qty, ep, dc := colF(li, "l_quantity"), colF(li, "l_extendedprice"), colF(li, "l_discount")
	var want float64
	matched := 0
	for r := range lpk {
		if mode[r] != "AIR" && mode[r] != "REG AIR" || instr[r] != "DELIVER IN PERSON" {
			continue
		}
		p := parts[lpk[r]]
		for _, br := range branches {
			if p.brand == br.brand && slices.Contains(br.containers, p.container) &&
				qty[r] >= br.qlo && qty[r] <= br.qhi && p.size >= 1 && p.size <= br.smax {
				want += ep[r] * (1 - dc[r])
				matched++
				break
			}
		}
	}
	if matched == 0 {
		t.Fatal("no lineitem satisfies a Q19 branch at this scale: the check would be vacuous")
	}
	out := runQuery(t, memCtx(), 19)
	if got := out.Cols[0].F[0]; math.Abs(got-want) > 1e-6*(want+1) {
		t.Fatalf("Q19 = %v, want %v (%d lineitems)", got, want, matched)
	}
}

func TestQ22AgainstReference(t *testing.T) {
	db := sharedDB()
	cust := db.T(Customer).(*colstore.MemTable)
	orders := db.T(Orders).(*colstore.MemTable)
	codes := map[string]bool{"13": true, "31": true, "23": true, "29": true, "30": true, "18": true, "17": true}
	phones, bals, keys := colS(cust, "c_phone"), colF(cust, "c_acctbal"), colI(cust, "c_custkey")
	var sum float64
	var n int64
	for r := range phones {
		if codes[phones[r][:2]] && bals[r] > 0 {
			sum += bals[r]
			n++
		}
	}
	avg := sum / float64(n)
	hasOrder := map[int64]bool{}
	for _, ck := range colI(orders, "o_custkey") {
		hasOrder[ck] = true
	}
	type acc struct {
		n   int64
		bal float64
	}
	want := map[string]*acc{}
	for r := range phones {
		cc := phones[r][:2]
		if codes[cc] && bals[r] > avg && !hasOrder[keys[r]] {
			a := want[cc]
			if a == nil {
				a = &acc{}
				want[cc] = a
			}
			a.n++
			a.bal += bals[r]
		}
	}
	out := runQuery(t, memCtx(), 22)
	if out.Len() != len(want) {
		t.Fatalf("Q22 groups = %d, want %d", out.Len(), len(want))
	}
	for r := 0; r < out.Len(); r++ {
		cc := out.Cols[0].S[r]
		a := want[cc]
		if a == nil || out.Cols[1].I[r] != a.n {
			t.Fatalf("Q22 %s: numcust %d, want %+v", cc, out.Cols[1].I[r], a)
		}
		if math.Abs(out.Cols[2].F[r]-a.bal) > 1e-6*(a.bal+1) {
			t.Fatalf("Q22 %s: totacctbal wrong", cc)
		}
	}
}

func TestMicrobenchmarks(t *testing.T) {
	db := sharedDB()
	li := db.T(Lineitem)
	for _, tc := range []struct {
		name string
		node exec.Node
	}{
		{"agg", AggMicro(db)},
		{"join", JoinMicro(db)},
	} {
		out, err := exec.Collect(memCtx(), tc.node)
		if err != nil {
			t.Fatalf("%s micro: %v", tc.name, err)
		}
		if tc.name == "join" && int64(out.Len()) != li.Rows() {
			// Every lineitem row matches exactly one partsupp row.
			t.Fatalf("join micro rows = %d, want %d", out.Len(), li.Rows())
		}
		if tc.name == "agg" && int64(out.Len()) > li.Rows() {
			t.Fatalf("agg micro rows = %d > input", out.Len())
		}
	}
}

func TestMicrobenchmarksSpillEquivalence(t *testing.T) {
	db := sharedDB()
	for _, build := range []func(*DB) exec.Node{AggMicro, JoinMicro} {
		ref, err := exec.Collect(memCtx(), build(db))
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Collect(spillingCtx(), build(db))
		if err != nil {
			t.Fatal(err)
		}
		refSet := map[string]int{}
		for _, s := range rowStrings(ref) {
			refSet[s]++
		}
		for _, s := range rowStrings(got) {
			refSet[s]--
		}
		for s, n := range refSet {
			if n != 0 {
				t.Fatalf("micro results differ (%+d of %s)", n, s)
			}
		}
	}
}

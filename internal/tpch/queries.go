package tpch

import (
	"fmt"

	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/exec"
)

// DB is a TPC-H database instance: the eight tables plus the scale factor
// (some query predicates, e.g. Q11's threshold, depend on SF).
type DB struct {
	SF     float64
	Tables map[string]colstore.Table
}

// NewMemDB generates an in-memory database at the given scale factor.
func NewMemDB(sf float64) *DB {
	g := &Gen{SF: sf}
	db := &DB{SF: sf, Tables: map[string]colstore.Table{}}
	for name, t := range g.All() {
		db.Tables[name] = t
	}
	return db
}

// T returns a table by name.
func (d *DB) T(name string) colstore.Table {
	t, ok := d.Tables[name]
	if !ok {
		panic(fmt.Sprintf("tpch: table %q not loaded", name))
	}
	return t
}

// NumQueries is the number of TPC-H queries.
const NumQueries = 22

// BuildQuery constructs the physical plan for TPC-H query q (1-22).
// Queries with scalar subqueries (Q11, Q15, Q22) execute those subplans
// immediately using ctx, mirroring how engines evaluate uncorrelated
// subqueries before the main plan.
func BuildQuery(ctx *exec.Ctx, db *DB, q int) (exec.Node, error) {
	switch q {
	case 1:
		return q1(db), nil
	case 2:
		return q2(db), nil
	case 3:
		return q3(db), nil
	case 4:
		return q4(db), nil
	case 5:
		return q5(db), nil
	case 6:
		return q6(db), nil
	case 7:
		return q7(db), nil
	case 8:
		return q8(db), nil
	case 9:
		return q9(db), nil
	case 10:
		return q10(db), nil
	case 11:
		return q11(ctx, db)
	case 12:
		return q12(db), nil
	case 13:
		return q13(db), nil
	case 14:
		return q14(db), nil
	case 15:
		return q15(ctx, db)
	case 16:
		return q16(db), nil
	case 17:
		return q17(db), nil
	case 18:
		return q18(db), nil
	case 19:
		return q19(db), nil
	case 20:
		return q20(db), nil
	case 21:
		return q21(db), nil
	case 22:
		return q22(ctx, db)
	default:
		return nil, fmt.Errorf("tpch: no query %d", q)
	}
}

// --- helpers ---

func scan(db *DB, table string, cols ...string) *exec.Scan {
	return exec.NewScan(db.T(table), cols...)
}

func colOf(n exec.Node, name string) exec.Expr { return exec.Col(n.Schema(), name) }

// revenueExpr is l_extendedprice * (1 - l_discount) over a node exposing
// those columns.
func revenueExpr(n exec.Node) exec.Expr {
	return exec.Mul(colOf(n, "l_extendedprice"), exec.Sub(exec.ConstFloat(1), colOf(n, "l_discount")))
}

// project is a light wrapper pairing names with expressions.
func project(child exec.Node, names []string, exprs []exec.Expr) exec.Node {
	return exec.NewProject(child, names, exprs)
}

// addCol appends one computed column to every row.
func addCol(child exec.Node, name string, e exec.Expr) exec.Node {
	s := child.Schema()
	names := make([]string, 0, s.Len()+1)
	exprs := make([]exec.Expr, 0, s.Len()+1)
	for _, cd := range s.Cols {
		names = append(names, cd.Name)
		exprs = append(exprs, exec.Col(s, cd.Name))
	}
	return exec.NewProject(child, append(names, name), append(exprs, e))
}

// scalarFloat runs a single-row plan and returns column col as float64.
func scalarFloat(ctx *exec.Ctx, n exec.Node, colName string) (float64, error) {
	out, err := exec.Collect(ctx, n)
	if err != nil {
		return 0, err
	}
	if out.Len() != 1 {
		return 0, fmt.Errorf("tpch: scalar subquery returned %d rows", out.Len())
	}
	i := out.Schema.MustIndex(colName)
	if out.Cols[i].Type == data.Float64 {
		return out.Cols[i].F[0], nil
	}
	return float64(out.Cols[i].I[0]), nil
}

// materialize runs a plan into an in-memory table so it can be scanned
// multiple times (view-style reuse, e.g. Q15's revenue view).
func materialize(ctx *exec.Ctx, n exec.Node) (*colstore.MemTable, error) {
	out, err := exec.Collect(ctx, n)
	if err != nil {
		return nil, err
	}
	t := colstore.NewMemTable("tmp", out.Schema, 0)
	t.Append(out)
	return t, nil
}

// --- the queries ---

// q1 is the pricing summary report.
func q1(db *DB) exec.Node {
	l := scan(db, Lineitem, "l_returnflag", "l_linestatus", "l_quantity",
		"l_extendedprice", "l_discount", "l_tax", "l_shipdate")
	l.Filter = exec.Cmp("<=", colOf(l, "l_shipdate"), exec.ConstDate("1998-09-02"))
	disc := exec.Mul(colOf(l, "l_extendedprice"), exec.Sub(exec.ConstFloat(1), colOf(l, "l_discount")))
	charge := exec.Mul(disc, exec.Add(exec.ConstFloat(1), colOf(l, "l_tax")))
	pre := project(l,
		[]string{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "disc_price", "charge"},
		[]exec.Expr{colOf(l, "l_returnflag"), colOf(l, "l_linestatus"), colOf(l, "l_quantity"),
			colOf(l, "l_extendedprice"), colOf(l, "l_discount"), disc, charge})
	agg := exec.NewAgg(pre, []string{"l_returnflag", "l_linestatus"}, []exec.AggSpec{
		{Func: exec.Sum, Col: "l_quantity", As: "sum_qty"},
		{Func: exec.Sum, Col: "l_extendedprice", As: "sum_base_price"},
		{Func: exec.Sum, Col: "disc_price", As: "sum_disc_price"},
		{Func: exec.Sum, Col: "charge", As: "sum_charge"},
		{Func: exec.Avg, Col: "l_quantity", As: "avg_qty"},
		{Func: exec.Avg, Col: "l_extendedprice", As: "avg_price"},
		{Func: exec.Avg, Col: "l_discount", As: "avg_disc"},
		{Func: exec.CountStar, As: "count_order"},
	})
	return &exec.ExtSort{Child: agg, Keys: []exec.SortKey{{Col: "l_returnflag"}, {Col: "l_linestatus"}}}
}

// q2 is the minimum cost supplier query.
func q2(db *DB) exec.Node {
	// European suppliers with their nation names.
	r := scan(db, Region, "r_regionkey", "r_name")
	r.Filter = exec.Cmp("=", colOf(r, "r_name"), exec.ConstStr("EUROPE"))
	n := scan(db, Nation, "n_nationkey", "n_name", "n_regionkey")
	nr := exec.NewJoin(exec.Inner, r, []string{"r_regionkey"}, n, []string{"n_regionkey"})
	s := scan(db, Supplier, "s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone", "s_acctbal", "s_comment")
	se := exec.NewJoin(exec.Inner, nr, []string{"n_nationkey"}, s, []string{"s_nationkey"})

	// All European partsupp offers.
	ps := scan(db, PartSupp, "ps_partkey", "ps_suppkey", "ps_supplycost")
	pse := exec.NewJoin(exec.Inner, seSlim(se), []string{"s_suppkey"}, ps, []string{"ps_suppkey"})

	// Minimum cost per part over European offers.
	minCost := exec.NewAgg(pse, []string{"ps_partkey"}, []exec.AggSpec{{Func: exec.Min, Col: "ps_supplycost", As: "min_cost"}})

	// Qualifying parts.
	p := scan(db, Part, "p_partkey", "p_mfgr", "p_size", "p_type")
	p.Filter = exec.And(
		exec.Cmp("=", colOf(p, "p_size"), exec.ConstInt(15)),
		exec.Like(colOf(p, "p_type"), "%BRASS"),
	)

	// Offers joined with full supplier info, restricted to qualifying
	// parts at exactly the minimum cost.
	full := exec.NewJoin(exec.Inner, seFull(se), []string{"s_suppkey"}, ps, []string{"ps_suppkey"})
	withPart := exec.NewJoin(exec.Inner, p, []string{"p_partkey"}, full, []string{"ps_partkey"})
	withMin := exec.NewJoin(exec.Inner, minCost, []string{"ps_partkey"}, withPart, []string{"ps_partkey"})
	filtered := &exec.FilterNode{Child: withMin, Pred: exec.Cmp("=", colOf(withMin, "ps_supplycost"), colOf(withMin, "min_cost"))}

	proj := project(filtered,
		[]string{"s_acctbal", "s_name", "n_name", "p_partkey", "p_mfgr", "s_address", "s_phone", "s_comment"},
		[]exec.Expr{colOf(filtered, "s_acctbal"), colOf(filtered, "s_name"), colOf(filtered, "n_name"),
			colOf(filtered, "p_partkey"), colOf(filtered, "p_mfgr"), colOf(filtered, "s_address"),
			colOf(filtered, "s_phone"), colOf(filtered, "s_comment")})
	return &exec.ExtSort{Child: proj, Keys: []exec.SortKey{
		{Col: "s_acctbal", Desc: true}, {Col: "n_name"}, {Col: "s_name"}, {Col: "p_partkey"},
	}, Limit: 100}
}

// seSlim projects a supplier-nation join down to the supplier key.
func seSlim(se exec.Node) exec.Node {
	return project(se, []string{"s_suppkey"}, []exec.Expr{colOf(se, "s_suppkey")})
}

// seFull keeps the supplier columns Q2 outputs.
func seFull(se exec.Node) exec.Node {
	return project(se,
		[]string{"s_suppkey", "s_name", "s_address", "s_phone", "s_acctbal", "s_comment", "n_name"},
		[]exec.Expr{colOf(se, "s_suppkey"), colOf(se, "s_name"), colOf(se, "s_address"),
			colOf(se, "s_phone"), colOf(se, "s_acctbal"), colOf(se, "s_comment"), colOf(se, "n_name")})
}

// q3 is the shipping priority query.
func q3(db *DB) exec.Node {
	c := scan(db, Customer, "c_custkey", "c_mktsegment")
	c.Filter = exec.Cmp("=", colOf(c, "c_mktsegment"), exec.ConstStr("BUILDING"))
	cSlim := project(c, []string{"c_custkey"}, []exec.Expr{colOf(c, "c_custkey")})

	o := scan(db, Orders, "o_orderkey", "o_custkey", "o_orderdate", "o_shippriority")
	o.Filter = exec.Cmp("<", colOf(o, "o_orderdate"), exec.ConstDate("1995-03-15"))
	co := exec.NewJoin(exec.Inner, cSlim, []string{"c_custkey"}, o, []string{"o_custkey"})
	coSlim := project(co, []string{"o_orderkey", "o_orderdate", "o_shippriority"},
		[]exec.Expr{colOf(co, "o_orderkey"), colOf(co, "o_orderdate"), colOf(co, "o_shippriority")})

	l := scan(db, Lineitem, "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate")
	l.Filter = exec.Cmp(">", colOf(l, "l_shipdate"), exec.ConstDate("1995-03-15"))
	j := exec.NewJoin(exec.Inner, coSlim, []string{"o_orderkey"}, l, []string{"l_orderkey"})
	withRev := addCol(j, "rev", revenueExpr(j))
	agg := exec.NewAgg(withRev, []string{"l_orderkey", "o_orderdate", "o_shippriority"},
		[]exec.AggSpec{{Func: exec.Sum, Col: "rev", As: "revenue"}})
	return &exec.ExtSort{Child: agg, Keys: []exec.SortKey{{Col: "revenue", Desc: true}, {Col: "o_orderdate"}}, Limit: 10}
}

// q4 is the order priority checking query.
func q4(db *DB) exec.Node {
	l := scan(db, Lineitem, "l_orderkey", "l_commitdate", "l_receiptdate")
	l.Filter = exec.Cmp("<", colOf(l, "l_commitdate"), colOf(l, "l_receiptdate"))
	lSlim := project(l, []string{"l_orderkey"}, []exec.Expr{colOf(l, "l_orderkey")})

	o := scan(db, Orders, "o_orderkey", "o_orderdate", "o_orderpriority")
	o.Filter = exec.And(
		exec.Cmp(">=", colOf(o, "o_orderdate"), exec.ConstDate("1993-07-01")),
		exec.Cmp("<", colOf(o, "o_orderdate"), exec.ConstDate("1993-10-01")),
	)
	semi := exec.NewJoin(exec.Semi, lSlim, []string{"l_orderkey"}, o, []string{"o_orderkey"})
	agg := exec.NewAgg(semi, []string{"o_orderpriority"}, []exec.AggSpec{{Func: exec.CountStar, As: "order_count"}})
	return &exec.ExtSort{Child: agg, Keys: []exec.SortKey{{Col: "o_orderpriority"}}}
}

// q5 is the local supplier volume query.
func q5(db *DB) exec.Node {
	r := scan(db, Region, "r_regionkey", "r_name")
	r.Filter = exec.Cmp("=", colOf(r, "r_name"), exec.ConstStr("ASIA"))
	n := scan(db, Nation, "n_nationkey", "n_name", "n_regionkey")
	nr := exec.NewJoin(exec.Inner, r, []string{"r_regionkey"}, n, []string{"n_regionkey"})
	s := scan(db, Supplier, "s_suppkey", "s_nationkey")
	sn := exec.NewJoin(exec.Inner, nr, []string{"n_nationkey"}, s, []string{"s_nationkey"})
	snSlim := project(sn, []string{"s_suppkey", "s_nationkey", "n_name"},
		[]exec.Expr{colOf(sn, "s_suppkey"), colOf(sn, "s_nationkey"), colOf(sn, "n_name")})

	o := scan(db, Orders, "o_orderkey", "o_custkey", "o_orderdate")
	o.Filter = exec.And(
		exec.Cmp(">=", colOf(o, "o_orderdate"), exec.ConstDate("1994-01-01")),
		exec.Cmp("<", colOf(o, "o_orderdate"), exec.ConstDate("1995-01-01")),
	)
	c := scan(db, Customer, "c_custkey", "c_nationkey")
	co := exec.NewJoin(exec.Inner, c, []string{"c_custkey"}, o, []string{"o_custkey"})
	coSlim := project(co, []string{"o_orderkey", "c_nationkey"},
		[]exec.Expr{colOf(co, "o_orderkey"), colOf(co, "c_nationkey")})

	l := scan(db, Lineitem, "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount")
	lo := exec.NewJoin(exec.Inner, coSlim, []string{"o_orderkey"}, l, []string{"l_orderkey"})
	// The local-supplier condition: supplier nation == customer nation.
	j := exec.NewJoin(exec.Inner, snSlim, []string{"s_suppkey", "s_nationkey"}, lo, []string{"l_suppkey", "c_nationkey"})
	withRev := addCol(j, "rev", revenueExpr(j))
	agg := exec.NewAgg(withRev, []string{"n_name"}, []exec.AggSpec{{Func: exec.Sum, Col: "rev", As: "revenue"}})
	return &exec.ExtSort{Child: agg, Keys: []exec.SortKey{{Col: "revenue", Desc: true}}}
}

// q6 is the forecasting revenue change query.
func q6(db *DB) exec.Node {
	l := scan(db, Lineitem, "l_shipdate", "l_discount", "l_quantity", "l_extendedprice")
	l.Filter = exec.And(
		exec.Cmp(">=", colOf(l, "l_shipdate"), exec.ConstDate("1994-01-01")),
		exec.Cmp("<", colOf(l, "l_shipdate"), exec.ConstDate("1995-01-01")),
		exec.Cmp(">=", colOf(l, "l_discount"), exec.ConstFloat(0.0499)),
		exec.Cmp("<=", colOf(l, "l_discount"), exec.ConstFloat(0.0701)),
		exec.Cmp("<", colOf(l, "l_quantity"), exec.ConstFloat(24)),
	)
	withRev := addCol(l, "rev", exec.Mul(colOf(l, "l_extendedprice"), colOf(l, "l_discount")))
	return exec.NewAgg(withRev, nil, []exec.AggSpec{{Func: exec.Sum, Col: "rev", As: "revenue"}})
}

// q7 is the volume shipping query.
func q7(db *DB) exec.Node {
	n1 := scan(db, Nation, "n_nationkey", "n_name")
	n1.Filter = exec.InStr(colOf(n1, "n_name"), "FRANCE", "GERMANY")
	s := scan(db, Supplier, "s_suppkey", "s_nationkey")
	sn := exec.NewJoin(exec.Inner, n1, []string{"n_nationkey"}, s, []string{"s_nationkey"})
	snSlim := project(sn, []string{"s_suppkey", "supp_nation"},
		[]exec.Expr{colOf(sn, "s_suppkey"), colOf(sn, "n_name")})

	n2 := scan(db, Nation, "n_nationkey", "n_name")
	n2.Filter = exec.InStr(colOf(n2, "n_name"), "FRANCE", "GERMANY")
	c := scan(db, Customer, "c_custkey", "c_nationkey")
	cn := exec.NewJoin(exec.Inner, n2, []string{"n_nationkey"}, c, []string{"c_nationkey"})
	cnSlim := project(cn, []string{"c_custkey", "cust_nation"},
		[]exec.Expr{colOf(cn, "c_custkey"), colOf(cn, "n_name")})

	o := scan(db, Orders, "o_orderkey", "o_custkey")
	co := exec.NewJoin(exec.Inner, cnSlim, []string{"c_custkey"}, o, []string{"o_custkey"})
	coSlim := project(co, []string{"o_orderkey", "cust_nation"},
		[]exec.Expr{colOf(co, "o_orderkey"), colOf(co, "cust_nation")})

	l := scan(db, Lineitem, "l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice", "l_discount")
	l.Filter = exec.And(
		exec.Cmp(">=", colOf(l, "l_shipdate"), exec.ConstDate("1995-01-01")),
		exec.Cmp("<=", colOf(l, "l_shipdate"), exec.ConstDate("1996-12-31")),
	)
	lo := exec.NewJoin(exec.Inner, coSlim, []string{"o_orderkey"}, l, []string{"l_orderkey"})
	j := exec.NewJoin(exec.Inner, snSlim, []string{"s_suppkey"}, lo, []string{"l_suppkey"})
	pair := &exec.FilterNode{Child: j, Pred: exec.Or(
		exec.And(exec.Cmp("=", colOf(j, "supp_nation"), exec.ConstStr("FRANCE")),
			exec.Cmp("=", colOf(j, "cust_nation"), exec.ConstStr("GERMANY"))),
		exec.And(exec.Cmp("=", colOf(j, "supp_nation"), exec.ConstStr("GERMANY")),
			exec.Cmp("=", colOf(j, "cust_nation"), exec.ConstStr("FRANCE"))),
	)}
	pre := project(pair, []string{"supp_nation", "cust_nation", "l_year", "volume"},
		[]exec.Expr{colOf(pair, "supp_nation"), colOf(pair, "cust_nation"),
			exec.YearOf(colOf(pair, "l_shipdate")), revenueExpr(pair)})
	agg := exec.NewAgg(pre, []string{"supp_nation", "cust_nation", "l_year"},
		[]exec.AggSpec{{Func: exec.Sum, Col: "volume", As: "revenue"}})
	return &exec.ExtSort{Child: agg, Keys: []exec.SortKey{{Col: "supp_nation"}, {Col: "cust_nation"}, {Col: "l_year"}}}
}

// q8 is the national market share query.
func q8(db *DB) exec.Node {
	p := scan(db, Part, "p_partkey", "p_type")
	p.Filter = exec.Cmp("=", colOf(p, "p_type"), exec.ConstStr("ECONOMY ANODIZED STEEL"))
	pSlim := project(p, []string{"p_partkey"}, []exec.Expr{colOf(p, "p_partkey")})

	l := scan(db, Lineitem, "l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount")
	lp := exec.NewJoin(exec.Inner, pSlim, []string{"p_partkey"}, l, []string{"l_partkey"})

	o := scan(db, Orders, "o_orderkey", "o_custkey", "o_orderdate")
	o.Filter = exec.And(
		exec.Cmp(">=", colOf(o, "o_orderdate"), exec.ConstDate("1995-01-01")),
		exec.Cmp("<=", colOf(o, "o_orderdate"), exec.ConstDate("1996-12-31")),
	)
	oSlim := project(o, []string{"o_orderkey", "o_custkey", "o_orderdate"},
		[]exec.Expr{colOf(o, "o_orderkey"), colOf(o, "o_custkey"), colOf(o, "o_orderdate")})
	lpo := exec.NewJoin(exec.Inner, oSlim, []string{"o_orderkey"}, lp, []string{"l_orderkey"})

	// Customers in AMERICA.
	r := scan(db, Region, "r_regionkey", "r_name")
	r.Filter = exec.Cmp("=", colOf(r, "r_name"), exec.ConstStr("AMERICA"))
	n1 := scan(db, Nation, "n_nationkey", "n_regionkey")
	nr := exec.NewJoin(exec.Inner, r, []string{"r_regionkey"}, n1, []string{"n_regionkey"})
	c := scan(db, Customer, "c_custkey", "c_nationkey")
	cn := exec.NewJoin(exec.Inner, nr, []string{"n_nationkey"}, c, []string{"c_nationkey"})
	cnSlim := project(cn, []string{"c_custkey"}, []exec.Expr{colOf(cn, "c_custkey")})
	lpoc := exec.NewJoin(exec.Inner, cnSlim, []string{"c_custkey"}, lpo, []string{"o_custkey"})

	// Supplier nation names.
	n2 := scan(db, Nation, "n_nationkey", "n_name")
	s := scan(db, Supplier, "s_suppkey", "s_nationkey")
	sn := exec.NewJoin(exec.Inner, n2, []string{"n_nationkey"}, s, []string{"s_nationkey"})
	snSlim := project(sn, []string{"s_suppkey", "nation"},
		[]exec.Expr{colOf(sn, "s_suppkey"), colOf(sn, "n_name")})
	j := exec.NewJoin(exec.Inner, snSlim, []string{"s_suppkey"}, lpoc, []string{"l_suppkey"})

	vol := revenueExpr(j)
	pre := project(j, []string{"o_year", "volume", "brazil_volume"},
		[]exec.Expr{
			exec.YearOf(colOf(j, "o_orderdate")),
			vol,
			exec.Case(exec.Cmp("=", colOf(j, "nation"), exec.ConstStr("BRAZIL")), vol, exec.ConstFloat(0)),
		})
	agg := exec.NewAgg(pre, []string{"o_year"}, []exec.AggSpec{
		{Func: exec.Sum, Col: "brazil_volume", As: "sum_brazil"},
		{Func: exec.Sum, Col: "volume", As: "sum_all"},
	})
	share := project(agg, []string{"o_year", "mkt_share"},
		[]exec.Expr{colOf(agg, "o_year"), exec.Div(colOf(agg, "sum_brazil"), colOf(agg, "sum_all"))})
	return &exec.ExtSort{Child: share, Keys: []exec.SortKey{{Col: "o_year"}}}
}

// q9 is the product type profit measure query.
func q9(db *DB) exec.Node {
	p := scan(db, Part, "p_partkey", "p_name")
	p.Filter = exec.Like(colOf(p, "p_name"), "%green%")
	pSlim := project(p, []string{"p_partkey"}, []exec.Expr{colOf(p, "p_partkey")})

	l := scan(db, Lineitem, "l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount")
	lp := exec.NewJoin(exec.Inner, pSlim, []string{"p_partkey"}, l, []string{"l_partkey"})

	ps := scan(db, PartSupp, "ps_partkey", "ps_suppkey", "ps_supplycost")
	lps := exec.NewJoin(exec.Inner, ps, []string{"ps_partkey", "ps_suppkey"}, lp, []string{"l_partkey", "l_suppkey"})

	o := scan(db, Orders, "o_orderkey", "o_orderdate")
	lpso := exec.NewJoin(exec.Inner, o, []string{"o_orderkey"}, lps, []string{"l_orderkey"})

	n := scan(db, Nation, "n_nationkey", "n_name")
	s := scan(db, Supplier, "s_suppkey", "s_nationkey")
	sn := exec.NewJoin(exec.Inner, n, []string{"n_nationkey"}, s, []string{"s_nationkey"})
	snSlim := project(sn, []string{"s_suppkey", "nation"},
		[]exec.Expr{colOf(sn, "s_suppkey"), colOf(sn, "n_name")})
	j := exec.NewJoin(exec.Inner, snSlim, []string{"s_suppkey"}, lpso, []string{"l_suppkey"})

	amount := exec.Sub(revenueExpr(j), exec.Mul(colOf(j, "ps_supplycost"), colOf(j, "l_quantity")))
	pre := project(j, []string{"nation", "o_year", "amount"},
		[]exec.Expr{colOf(j, "nation"), exec.YearOf(colOf(j, "o_orderdate")), amount})
	agg := exec.NewAgg(pre, []string{"nation", "o_year"}, []exec.AggSpec{{Func: exec.Sum, Col: "amount", As: "sum_profit"}})
	return &exec.ExtSort{Child: agg, Keys: []exec.SortKey{{Col: "nation"}, {Col: "o_year", Desc: true}}}
}

// q10 is the returned item reporting query.
func q10(db *DB) exec.Node {
	o := scan(db, Orders, "o_orderkey", "o_custkey", "o_orderdate")
	o.Filter = exec.And(
		exec.Cmp(">=", colOf(o, "o_orderdate"), exec.ConstDate("1993-10-01")),
		exec.Cmp("<", colOf(o, "o_orderdate"), exec.ConstDate("1994-01-01")),
	)
	l := scan(db, Lineitem, "l_orderkey", "l_returnflag", "l_extendedprice", "l_discount")
	l.Filter = exec.Cmp("=", colOf(l, "l_returnflag"), exec.ConstStr("R"))
	oSlim := project(o, []string{"o_orderkey", "o_custkey"},
		[]exec.Expr{colOf(o, "o_orderkey"), colOf(o, "o_custkey")})
	lo := exec.NewJoin(exec.Inner, oSlim, []string{"o_orderkey"}, l, []string{"l_orderkey"})

	c := scan(db, Customer, "c_custkey", "c_name", "c_acctbal", "c_phone", "c_address", "c_comment", "c_nationkey")
	n := scan(db, Nation, "n_nationkey", "n_name")
	cn := exec.NewJoin(exec.Inner, n, []string{"n_nationkey"}, c, []string{"c_nationkey"})
	j := exec.NewJoin(exec.Inner, cn, []string{"c_custkey"}, lo, []string{"o_custkey"})
	withRev := addCol(j, "rev", revenueExpr(j))
	agg := exec.NewAgg(withRev,
		[]string{"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"},
		[]exec.AggSpec{{Func: exec.Sum, Col: "rev", As: "revenue"}})
	return &exec.ExtSort{Child: agg, Keys: []exec.SortKey{{Col: "revenue", Desc: true}}, Limit: 20}
}

// q11 is the important stock identification query (scalar subquery).
func q11(ctx *exec.Ctx, db *DB) (exec.Node, error) {
	base := func() exec.Node {
		n := scan(db, Nation, "n_nationkey", "n_name")
		n.Filter = exec.Cmp("=", colOf(n, "n_name"), exec.ConstStr("GERMANY"))
		s := scan(db, Supplier, "s_suppkey", "s_nationkey")
		sn := exec.NewJoin(exec.Inner, n, []string{"n_nationkey"}, s, []string{"s_nationkey"})
		snSlim := project(sn, []string{"s_suppkey"}, []exec.Expr{colOf(sn, "s_suppkey")})
		ps := scan(db, PartSupp, "ps_partkey", "ps_suppkey", "ps_supplycost", "ps_availqty")
		j := exec.NewJoin(exec.Inner, snSlim, []string{"s_suppkey"}, ps, []string{"ps_suppkey"})
		return addCol(j, "value", exec.Mul(colOf(j, "ps_supplycost"), colOf(j, "ps_availqty")))
	}
	total, err := scalarFloat(ctx, exec.NewAgg(base(), nil,
		[]exec.AggSpec{{Func: exec.Sum, Col: "value", As: "total"}}), "total")
	if err != nil {
		return nil, err
	}
	threshold := total * 0.0001 / db.SF
	agg := exec.NewAgg(base(), []string{"ps_partkey"}, []exec.AggSpec{{Func: exec.Sum, Col: "value", As: "value"}})
	filtered := &exec.FilterNode{Child: agg, Pred: exec.Cmp(">", colOf(agg, "value"), exec.ConstFloat(threshold))}
	return &exec.ExtSort{Child: filtered, Keys: []exec.SortKey{{Col: "value", Desc: true}}}, nil
}

// q12 is the shipping modes and order priority query.
func q12(db *DB) exec.Node {
	l := scan(db, Lineitem, "l_orderkey", "l_shipmode", "l_commitdate", "l_receiptdate", "l_shipdate")
	l.Filter = exec.And(
		exec.InStr(colOf(l, "l_shipmode"), "MAIL", "SHIP"),
		exec.Cmp("<", colOf(l, "l_commitdate"), colOf(l, "l_receiptdate")),
		exec.Cmp("<", colOf(l, "l_shipdate"), colOf(l, "l_commitdate")),
		exec.Cmp(">=", colOf(l, "l_receiptdate"), exec.ConstDate("1994-01-01")),
		exec.Cmp("<", colOf(l, "l_receiptdate"), exec.ConstDate("1995-01-01")),
	)
	o := scan(db, Orders, "o_orderkey", "o_orderpriority")
	j := exec.NewJoin(exec.Inner, o, []string{"o_orderkey"}, l, []string{"l_orderkey"})
	high := exec.InStr(colOf(j, "o_orderpriority"), "1-URGENT", "2-HIGH")
	pre := project(j, []string{"l_shipmode", "high_line", "low_line"},
		[]exec.Expr{colOf(j, "l_shipmode"),
			exec.Case(high, exec.ConstInt(1), exec.ConstInt(0)),
			exec.Case(high, exec.ConstInt(0), exec.ConstInt(1))})
	agg := exec.NewAgg(pre, []string{"l_shipmode"}, []exec.AggSpec{
		{Func: exec.Sum, Col: "high_line", As: "high_line_count"},
		{Func: exec.Sum, Col: "low_line", As: "low_line_count"},
	})
	return &exec.ExtSort{Child: agg, Keys: []exec.SortKey{{Col: "l_shipmode"}}}
}

// q13 is the customer distribution query (the one outer join in TPC-H).
func q13(db *DB) exec.Node {
	o := scan(db, Orders, "o_orderkey", "o_custkey", "o_comment")
	o.Filter = exec.NotLike(colOf(o, "o_comment"), "%special%requests%")
	oSlim := project(o, []string{"o_orderkey", "o_custkey"},
		[]exec.Expr{colOf(o, "o_orderkey"), colOf(o, "o_custkey")})
	c := scan(db, Customer, "c_custkey")
	j := exec.NewJoin(exec.Outer, oSlim, []string{"o_custkey"}, c, []string{"c_custkey"})
	counts := exec.NewAgg(j, []string{"c_custkey"}, []exec.AggSpec{{Func: exec.Count, Col: "o_orderkey", As: "c_count"}})
	dist := exec.NewAgg(counts, []string{"c_count"}, []exec.AggSpec{{Func: exec.CountStar, As: "custdist"}})
	return &exec.ExtSort{Child: dist, Keys: []exec.SortKey{{Col: "custdist", Desc: true}, {Col: "c_count", Desc: true}}}
}

// q14 is the promotion effect query.
func q14(db *DB) exec.Node {
	l := scan(db, Lineitem, "l_partkey", "l_shipdate", "l_extendedprice", "l_discount")
	l.Filter = exec.And(
		exec.Cmp(">=", colOf(l, "l_shipdate"), exec.ConstDate("1995-09-01")),
		exec.Cmp("<", colOf(l, "l_shipdate"), exec.ConstDate("1995-10-01")),
	)
	p := scan(db, Part, "p_partkey", "p_type")
	j := exec.NewJoin(exec.Inner, p, []string{"p_partkey"}, l, []string{"l_partkey"})
	rev := revenueExpr(j)
	pre := project(j, []string{"promo_rev", "rev"},
		[]exec.Expr{
			exec.Case(exec.Like(colOf(j, "p_type"), "PROMO%"), rev, exec.ConstFloat(0)),
			rev,
		})
	agg := exec.NewAgg(pre, nil, []exec.AggSpec{
		{Func: exec.Sum, Col: "promo_rev", As: "promo"},
		{Func: exec.Sum, Col: "rev", As: "total"},
	})
	return project(agg, []string{"promo_revenue"},
		[]exec.Expr{exec.Mul(exec.ConstFloat(100), exec.Div(colOf(agg, "promo"), colOf(agg, "total")))})
}

// q15 is the top supplier query (view + scalar max).
func q15(ctx *exec.Ctx, db *DB) (exec.Node, error) {
	l := scan(db, Lineitem, "l_suppkey", "l_shipdate", "l_extendedprice", "l_discount")
	l.Filter = exec.And(
		exec.Cmp(">=", colOf(l, "l_shipdate"), exec.ConstDate("1996-01-01")),
		exec.Cmp("<", colOf(l, "l_shipdate"), exec.ConstDate("1996-04-01")),
	)
	withRev := addCol(l, "rev", revenueExpr(l))
	revenue := exec.NewAgg(withRev, []string{"l_suppkey"}, []exec.AggSpec{{Func: exec.Sum, Col: "rev", As: "total_revenue"}})
	view, err := materialize(ctx, revenue)
	if err != nil {
		return nil, err
	}
	maxRev, err := scalarFloat(ctx, exec.NewAgg(exec.NewScan(view), nil,
		[]exec.AggSpec{{Func: exec.Max, Col: "total_revenue", As: "m"}}), "m")
	if err != nil {
		return nil, err
	}
	v := exec.NewScan(view)
	v.Filter = exec.Cmp(">=", exec.Col(v.Schema(), "total_revenue"), exec.ConstFloat(maxRev))
	s := scan(db, Supplier, "s_suppkey", "s_name", "s_address", "s_phone")
	j := exec.NewJoin(exec.Inner, v, []string{"l_suppkey"}, s, []string{"s_suppkey"})
	proj := project(j, []string{"s_suppkey", "s_name", "s_address", "s_phone", "total_revenue"},
		[]exec.Expr{colOf(j, "s_suppkey"), colOf(j, "s_name"), colOf(j, "s_address"),
			colOf(j, "s_phone"), colOf(j, "total_revenue")})
	return &exec.ExtSort{Child: proj, Keys: []exec.SortKey{{Col: "s_suppkey"}}}, nil
}

// q16 is the parts/supplier relationship query.
func q16(db *DB) exec.Node {
	p := scan(db, Part, "p_partkey", "p_brand", "p_type", "p_size")
	p.Filter = exec.And(
		exec.Cmp("<>", colOf(p, "p_brand"), exec.ConstStr("Brand#45")),
		exec.NotLike(colOf(p, "p_type"), "MEDIUM POLISHED%"),
		exec.InInt(colOf(p, "p_size"), 49, 14, 23, 45, 19, 3, 36, 9),
	)
	ps := scan(db, PartSupp, "ps_partkey", "ps_suppkey")
	j := exec.NewJoin(exec.Inner, p, []string{"p_partkey"}, ps, []string{"ps_partkey"})

	// Exclude suppliers with complaints (anti join).
	s := scan(db, Supplier, "s_suppkey", "s_comment")
	s.Filter = exec.Like(colOf(s, "s_comment"), "%Customer%Complaints%")
	sSlim := project(s, []string{"s_suppkey"}, []exec.Expr{colOf(s, "s_suppkey")})
	clean := exec.NewJoin(exec.Anti, sSlim, []string{"s_suppkey"}, j, []string{"ps_suppkey"})

	// count(distinct ps_suppkey): dedupe then count.
	dedup := exec.NewAgg(clean, []string{"p_brand", "p_type", "p_size", "ps_suppkey"}, nil)
	agg := exec.NewAgg(dedup, []string{"p_brand", "p_type", "p_size"},
		[]exec.AggSpec{{Func: exec.CountStar, As: "supplier_cnt"}})
	return &exec.ExtSort{Child: agg, Keys: []exec.SortKey{
		{Col: "supplier_cnt", Desc: true}, {Col: "p_brand"}, {Col: "p_type"}, {Col: "p_size"},
	}}
}

// q17 is the small-quantity-order revenue query (correlated avg,
// decorrelated into a per-part aggregate join).
func q17(db *DB) exec.Node {
	avgQty := exec.NewAgg(
		scan(db, Lineitem, "l_partkey", "l_quantity"),
		[]string{"l_partkey"},
		[]exec.AggSpec{{Func: exec.Avg, Col: "l_quantity", As: "avg_qty"}})

	p := scan(db, Part, "p_partkey", "p_brand", "p_container")
	p.Filter = exec.And(
		exec.Cmp("=", colOf(p, "p_brand"), exec.ConstStr("Brand#23")),
		exec.Cmp("=", colOf(p, "p_container"), exec.ConstStr("MED BOX")),
	)
	pSlim := project(p, []string{"p_partkey"}, []exec.Expr{colOf(p, "p_partkey")})

	l := scan(db, Lineitem, "l_partkey", "l_quantity", "l_extendedprice")
	lp := exec.NewJoin(exec.Inner, pSlim, []string{"p_partkey"}, l, []string{"l_partkey"})
	withAvg := exec.NewJoin(exec.Inner, avgQty, []string{"l_partkey"}, lp, []string{"l_partkey"})
	small := &exec.FilterNode{Child: withAvg, Pred: exec.Cmp("<",
		colOf(withAvg, "l_quantity"), exec.Mul(exec.ConstFloat(0.2), colOf(withAvg, "avg_qty")))}
	agg := exec.NewAgg(small, nil, []exec.AggSpec{{Func: exec.Sum, Col: "l_extendedprice", As: "s"}})
	return project(agg, []string{"avg_yearly"}, []exec.Expr{exec.Div(colOf(agg, "s"), exec.ConstFloat(7))})
}

// q18 is the large volume customer query.
func q18(db *DB) exec.Node {
	sumQty := exec.NewAgg(
		scan(db, Lineitem, "l_orderkey", "l_quantity"),
		[]string{"l_orderkey"},
		[]exec.AggSpec{{Func: exec.Sum, Col: "l_quantity", As: "total_qty"}})
	big := &exec.FilterNode{Child: sumQty, Pred: exec.Cmp(">", colOf(sumQty, "total_qty"), exec.ConstFloat(300))}
	bigSlim := project(big, []string{"bo_orderkey", "total_qty"},
		[]exec.Expr{colOf(big, "l_orderkey"), colOf(big, "total_qty")})

	o := scan(db, Orders, "o_orderkey", "o_custkey", "o_orderdate", "o_totalprice")
	oj := exec.NewJoin(exec.Inner, bigSlim, []string{"bo_orderkey"}, o, []string{"o_orderkey"})
	c := scan(db, Customer, "c_custkey", "c_name")
	j := exec.NewJoin(exec.Inner, c, []string{"c_custkey"}, oj, []string{"o_custkey"})
	proj := project(j,
		[]string{"c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "total_qty"},
		[]exec.Expr{colOf(j, "c_name"), colOf(j, "c_custkey"), colOf(j, "o_orderkey"),
			colOf(j, "o_orderdate"), colOf(j, "o_totalprice"), colOf(j, "total_qty")})
	return &exec.ExtSort{Child: proj, Keys: []exec.SortKey{{Col: "o_totalprice", Desc: true}, {Col: "o_orderdate"}}, Limit: 100}
}

// q19 is the discounted revenue query (disjunctive join predicate).
func q19(db *DB) exec.Node {
	l := scan(db, Lineitem, "l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_shipinstruct", "l_shipmode")
	l.Filter = exec.And(
		exec.InStr(colOf(l, "l_shipmode"), "AIR", "REG AIR"),
		exec.Cmp("=", colOf(l, "l_shipinstruct"), exec.ConstStr("DELIVER IN PERSON")),
	)
	p := scan(db, Part, "p_partkey", "p_brand", "p_container", "p_size")
	j := exec.NewJoin(exec.Inner, p, []string{"p_partkey"}, l, []string{"l_partkey"})

	branch := func(brand string, containers []string, qlo, qhi float64, smax int64) exec.Expr {
		return exec.And(
			exec.Cmp("=", colOf(j, "p_brand"), exec.ConstStr(brand)),
			exec.InStr(colOf(j, "p_container"), containers...),
			exec.Cmp(">=", colOf(j, "l_quantity"), exec.ConstFloat(qlo)),
			exec.Cmp("<=", colOf(j, "l_quantity"), exec.ConstFloat(qhi)),
			exec.Cmp(">=", colOf(j, "p_size"), exec.ConstInt(1)),
			exec.Cmp("<=", colOf(j, "p_size"), exec.ConstInt(smax)),
		)
	}
	filtered := &exec.FilterNode{Child: j, Pred: exec.Or(
		branch("Brand#12", []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11, 5),
		branch("Brand#23", []string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 20, 10),
		branch("Brand#34", []string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30, 15),
	)}
	withRev := addCol(filtered, "rev", revenueExpr(filtered))
	return exec.NewAgg(withRev, nil, []exec.AggSpec{{Func: exec.Sum, Col: "rev", As: "revenue"}})
}

// q20 is the potential part promotion query.
func q20(db *DB) exec.Node {
	l := scan(db, Lineitem, "l_partkey", "l_suppkey", "l_quantity", "l_shipdate")
	l.Filter = exec.And(
		exec.Cmp(">=", colOf(l, "l_shipdate"), exec.ConstDate("1994-01-01")),
		exec.Cmp("<", colOf(l, "l_shipdate"), exec.ConstDate("1995-01-01")),
	)
	sumQ := exec.NewAgg(l, []string{"l_partkey", "l_suppkey"},
		[]exec.AggSpec{{Func: exec.Sum, Col: "l_quantity", As: "sum_qty"}})

	p := scan(db, Part, "p_partkey", "p_name")
	p.Filter = exec.Like(colOf(p, "p_name"), "forest%")
	pSlim := project(p, []string{"p_partkey"}, []exec.Expr{colOf(p, "p_partkey")})

	ps := scan(db, PartSupp, "ps_partkey", "ps_suppkey", "ps_availqty")
	psForest := exec.NewJoin(exec.Semi, pSlim, []string{"p_partkey"}, ps, []string{"ps_partkey"})
	withSum := exec.NewJoin(exec.Inner, sumQ, []string{"l_partkey", "l_suppkey"},
		psForest, []string{"ps_partkey", "ps_suppkey"})
	excess := &exec.FilterNode{Child: withSum, Pred: exec.Cmp(">",
		colOf(withSum, "ps_availqty"), exec.Mul(exec.ConstFloat(0.5), colOf(withSum, "sum_qty")))}
	supps := exec.NewAgg(excess, []string{"ps_suppkey"}, nil) // distinct suppliers

	n := scan(db, Nation, "n_nationkey", "n_name")
	n.Filter = exec.Cmp("=", colOf(n, "n_name"), exec.ConstStr("CANADA"))
	s := scan(db, Supplier, "s_suppkey", "s_name", "s_address", "s_nationkey")
	sn := exec.NewJoin(exec.Inner, n, []string{"n_nationkey"}, s, []string{"s_nationkey"})
	j := exec.NewJoin(exec.Semi, supps, []string{"ps_suppkey"}, sn, []string{"s_suppkey"})
	proj := project(j, []string{"s_name", "s_address"},
		[]exec.Expr{colOf(j, "s_name"), colOf(j, "s_address")})
	return &exec.ExtSort{Child: proj, Keys: []exec.SortKey{{Col: "s_name"}}}
}

// q21 is the suppliers-who-kept-orders-waiting query. The EXISTS/NOT
// EXISTS pair is decorrelated into per-order distinct-supplier counts: an
// order qualifies when it has more than one supplier overall but exactly
// one late supplier (which is then necessarily the qualifying one).
func q21(db *DB) exec.Node {
	distinctSupp := func(late bool) exec.Node {
		l := scan(db, Lineitem, "l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate")
		if late {
			l.Filter = exec.Cmp(">", colOf(l, "l_receiptdate"), colOf(l, "l_commitdate"))
		}
		d := exec.NewAgg(l, []string{"l_orderkey", "l_suppkey"}, nil)
		return exec.NewAgg(d, []string{"l_orderkey"}, []exec.AggSpec{{Func: exec.CountStar, As: "n"}})
	}
	nAll := distinctSupp(false)
	multi := &exec.FilterNode{Child: nAll, Pred: exec.Cmp(">", colOf(nAll, "n"), exec.ConstInt(1))}
	multiSlim := project(multi, []string{"all_orderkey"}, []exec.Expr{colOf(multi, "l_orderkey")})
	nLate := distinctSupp(true)
	oneLate := &exec.FilterNode{Child: nLate, Pred: exec.Cmp("=", colOf(nLate, "n"), exec.ConstInt(1))}
	oneLateSlim := project(oneLate, []string{"late_orderkey"}, []exec.Expr{colOf(oneLate, "l_orderkey")})

	l1 := scan(db, Lineitem, "l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate")
	l1.Filter = exec.Cmp(">", colOf(l1, "l_receiptdate"), colOf(l1, "l_commitdate"))
	o := scan(db, Orders, "o_orderkey", "o_orderstatus")
	o.Filter = exec.Cmp("=", colOf(o, "o_orderstatus"), exec.ConstStr("F"))
	oSlim := project(o, []string{"o_orderkey"}, []exec.Expr{colOf(o, "o_orderkey")})
	l1o := exec.NewJoin(exec.Semi, oSlim, []string{"o_orderkey"}, l1, []string{"l_orderkey"})

	n := scan(db, Nation, "n_nationkey", "n_name")
	n.Filter = exec.Cmp("=", colOf(n, "n_name"), exec.ConstStr("SAUDI ARABIA"))
	s := scan(db, Supplier, "s_suppkey", "s_name", "s_nationkey")
	sn := exec.NewJoin(exec.Inner, n, []string{"n_nationkey"}, s, []string{"s_nationkey"})
	snSlim := project(sn, []string{"s_suppkey", "s_name"},
		[]exec.Expr{colOf(sn, "s_suppkey"), colOf(sn, "s_name")})
	l1s := exec.NewJoin(exec.Inner, snSlim, []string{"s_suppkey"}, l1o, []string{"l_suppkey"})

	withMulti := exec.NewJoin(exec.Inner, multiSlim, []string{"all_orderkey"}, l1s, []string{"l_orderkey"})
	withLate := exec.NewJoin(exec.Inner, oneLateSlim, []string{"late_orderkey"}, withMulti, []string{"l_orderkey"})

	agg := exec.NewAgg(withLate, []string{"s_name"}, []exec.AggSpec{{Func: exec.CountStar, As: "numwait"}})
	return &exec.ExtSort{Child: agg, Keys: []exec.SortKey{{Col: "numwait", Desc: true}, {Col: "s_name"}}, Limit: 100}
}

// q22 is the global sales opportunity query.
func q22(ctx *exec.Ctx, db *DB) (exec.Node, error) {
	codes := []string{"13", "31", "23", "29", "30", "18", "17"}
	base := func() *exec.Scan {
		c := scan(db, Customer, "c_custkey", "c_phone", "c_acctbal")
		c.Filter = exec.InStr(exec.Substr(exec.Col(c.Schema(), "c_phone"), 1, 2), codes...)
		return c
	}
	posC := base()
	posC.Filter = exec.And(posC.Filter, exec.Cmp(">", exec.Col(posC.Schema(), "c_acctbal"), exec.ConstFloat(0)))
	avgBal, err := scalarFloat(ctx, exec.NewAgg(posC, nil,
		[]exec.AggSpec{{Func: exec.Avg, Col: "c_acctbal", As: "a"}}), "a")
	if err != nil {
		return nil, err
	}
	rich := base()
	rich.Filter = exec.And(rich.Filter, exec.Cmp(">", exec.Col(rich.Schema(), "c_acctbal"), exec.ConstFloat(avgBal)))
	o := scan(db, Orders, "o_custkey")
	noOrders := exec.NewJoin(exec.Anti, o, []string{"o_custkey"}, rich, []string{"c_custkey"})
	pre := project(noOrders, []string{"cntrycode", "c_acctbal"},
		[]exec.Expr{exec.Substr(colOf(noOrders, "c_phone"), 1, 2), colOf(noOrders, "c_acctbal")})
	agg := exec.NewAgg(pre, []string{"cntrycode"}, []exec.AggSpec{
		{Func: exec.CountStar, As: "numcust"},
		{Func: exec.Sum, Col: "c_acctbal", As: "totacctbal"},
	})
	return &exec.ExtSort{Child: agg, Keys: []exec.SortKey{{Col: "cntrycode"}}}, nil
}

// AggMicro is the paper's §6.3 spilling-aggregation microbenchmark:
//
//	select l_orderkey, l_partkey, min(l_shipinstruct), min(l_comment)
//	from lineitem group by l_orderkey, l_partkey
//
// with ~99% unique groups and wide tuples.
func AggMicro(db *DB) exec.Node {
	l := scan(db, Lineitem, "l_orderkey", "l_partkey", "l_shipinstruct", "l_comment")
	return exec.NewAgg(l, []string{"l_orderkey", "l_partkey"}, []exec.AggSpec{
		{Func: exec.Min, Col: "l_shipinstruct", As: "min_instr"},
		{Func: exec.Min, Col: "l_comment", As: "min_comment"},
	})
}

// JoinMicro is the paper's §6.7 spilling-join microbenchmark:
//
//	select l_orderkey, l_shipinstruct, l_comment, ps_comment
//	from lineitem, partsupp
//	where ps_suppkey = l_suppkey and ps_partkey = l_partkey
//
// producing wide (~284 byte) output tuples.
func JoinMicro(db *DB) exec.Node {
	ps := scan(db, PartSupp, "ps_partkey", "ps_suppkey", "ps_comment")
	l := scan(db, Lineitem, "l_orderkey", "l_partkey", "l_suppkey", "l_shipinstruct", "l_comment")
	j := exec.NewJoin(exec.Inner, ps, []string{"ps_suppkey", "ps_partkey"}, l, []string{"l_suppkey", "l_partkey"})
	return project(j, []string{"l_orderkey", "l_shipinstruct", "l_comment", "ps_comment"},
		[]exec.Expr{colOf(j, "l_orderkey"), colOf(j, "l_shipinstruct"), colOf(j, "l_comment"), colOf(j, "ps_comment")})
}

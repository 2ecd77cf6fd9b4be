package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
)

// propSchema is a mixed-type schema exercising every kernel lane: int and
// float columns, strings for LIKE/IN/SUBSTRING, a date for YearOf, a
// nullable column for IsNotNull, and a bool column.
var propSchema = data.NewSchema(
	data.ColumnDef{Name: "a", Type: data.Int64},
	data.ColumnDef{Name: "b", Type: data.Int64},
	data.ColumnDef{Name: "f", Type: data.Float64},
	data.ColumnDef{Name: "g", Type: data.Float64},
	data.ColumnDef{Name: "s", Type: data.String},
	data.ColumnDef{Name: "d", Type: data.Date},
	data.ColumnDef{Name: "n", Type: data.Int64},
	data.ColumnDef{Name: "q", Type: data.Bool},
)

// randPropBatch builds a random batch over propSchema: random row count,
// sometimes a null mask on column n, and no selection vector, a random
// ascending one, or an empty one.
func randPropBatch(rng *rand.Rand) *data.Batch {
	n := 1 + rng.Intn(200)
	b := data.NewBatch(propSchema, n)
	words := []string{"MAIL", "SHIP", "AIR", "RAIL", "TRUCK", "FOB", "special", "packages"}
	for i := 0; i < n; i++ {
		b.Cols[0].I = append(b.Cols[0].I, int64(rng.Intn(50)-10))
		b.Cols[1].I = append(b.Cols[1].I, int64(rng.Intn(50)))
		b.Cols[2].F = append(b.Cols[2].F, rng.Float64()*100-50)
		b.Cols[3].F = append(b.Cols[3].F, rng.Float64())
		b.Cols[4].S = append(b.Cols[4].S, words[rng.Intn(len(words))]+fmt.Sprint(rng.Intn(5)))
		b.Cols[5].I = append(b.Cols[5].I, data.DateOf(1992+rng.Intn(7), 1+rng.Intn(12), 1+rng.Intn(28)))
		b.Cols[6].I = append(b.Cols[6].I, int64(rng.Intn(10)))
		b.Cols[7].I = append(b.Cols[7].I, int64(rng.Intn(2)))
	}
	b.SetLen(n)
	if rng.Intn(2) == 0 {
		null := make([]bool, n)
		for i := range null {
			null[i] = rng.Intn(3) == 0
		}
		b.Cols[6].Null = null
	}
	switch rng.Intn(5) {
	case 0, 1:
		sel := make([]int32, 0, n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) != 0 {
				sel = append(sel, int32(i))
			}
		}
		b.Sel = sel
	case 2:
		b.Sel = []int32{}
	}
	return b
}

// ref is an expression built together with a per-row Go function for the
// same expression: the reference evaluator the kernels are checked against.
// i serves Int64, Date and Bool (0/1), f Float64 and s String.
type ref struct {
	Expr
	i func(b *data.Batch, r int) int64
	f func(b *data.Batch, r int) float64
	s func(b *data.Batch, r int) string
}

func rCol(s *data.Schema, name string) ref {
	c := s.MustIndex(name)
	x := ref{Expr: Col(s, name)}
	switch x.Type {
	case data.Float64:
		x.f = func(b *data.Batch, r int) float64 { return b.Cols[c].F[r] }
	case data.String:
		x.s = func(b *data.Batch, r int) string { return b.Cols[c].S[r] }
	default:
		x.i = func(b *data.Batch, r int) int64 { return b.Cols[c].I[r] }
	}
	return x
}

func rInt(v int64) ref { return ref{Expr: ConstInt(v), i: func(*data.Batch, int) int64 { return v }} }

func rFloat(v float64) ref {
	return ref{Expr: ConstFloat(v), f: func(*data.Batch, int) float64 { return v }}
}

func rStr(v string) ref { return ref{Expr: ConstStr(v), s: func(*data.Batch, int) string { return v }} }

func rDate(v string) ref {
	d := data.ParseDate(v)
	return ref{Expr: ConstDate(v), i: func(*data.Batch, int) int64 { return d }}
}

func rBool(v bool) ref {
	return pred(ConstBool(v), func(*data.Batch, int) bool { return v })
}

// fl is x's per-row value as a float, promoting an int.
func (x ref) fl() func(b *data.Batch, r int) float64 {
	if x.f != nil {
		return x.f
	}
	return func(b *data.Batch, r int) float64 { return float64(x.i(b, r)) }
}

func rAsFloat(x ref) ref { return ref{Expr: x.AsFloat(), f: x.fl()} }

func rArith(build func(a, b Expr) Expr, a, b ref, iop func(x, y int64) int64, fop func(x, y float64) float64) ref {
	e := build(a.Expr, b.Expr)
	if e.Type == data.Float64 {
		af, bf := a.fl(), b.fl()
		return ref{Expr: e, f: func(bt *data.Batch, r int) float64 { return fop(af(bt, r), bf(bt, r)) }}
	}
	return ref{Expr: e, i: func(bt *data.Batch, r int) int64 { return iop(a.i(bt, r), b.i(bt, r)) }}
}

func rAdd(a, b ref) ref {
	return rArith(Add, a, b, func(x, y int64) int64 { return x + y }, func(x, y float64) float64 { return x + y })
}

func rSub(a, b ref) ref {
	return rArith(Sub, a, b, func(x, y int64) int64 { return x - y }, func(x, y float64) float64 { return x - y })
}

func rMul(a, b ref) ref {
	return rArith(Mul, a, b, func(x, y int64) int64 { return x * y }, func(x, y float64) float64 { return x * y })
}

func rDiv(a, b ref) ref {
	return rArith(Div, a, b, nil, func(x, y float64) float64 { return x / y })
}

// pred is a Bool reference from a per-row predicate.
func pred(e Expr, p func(b *data.Batch, r int) bool) ref {
	return ref{Expr: e, i: func(b *data.Batch, r int) int64 {
		if p(b, r) {
			return 1
		}
		return 0
	}}
}

func cmpRef[T ordered](op string, x, y T) bool {
	switch op {
	case "<":
		return x < y
	case "<=":
		return x <= y
	case ">":
		return x > y
	case ">=":
		return x >= y
	case "=":
		return x == y
	case "<>":
		return x != y
	}
	panic(op)
}

func rCmp(op string, a, b ref) ref {
	e := Cmp(op, a.Expr, b.Expr)
	switch {
	case a.s != nil:
		return pred(e, func(bt *data.Batch, r int) bool { return cmpRef(op, a.s(bt, r), b.s(bt, r)) })
	case a.f != nil || b.f != nil:
		af, bf := a.fl(), b.fl()
		return pred(e, func(bt *data.Batch, r int) bool { return cmpRef(op, af(bt, r), bf(bt, r)) })
	default:
		return pred(e, func(bt *data.Batch, r int) bool { return cmpRef(op, a.i(bt, r), b.i(bt, r)) })
	}
}

func exprsOf(xs []ref) []Expr {
	es := make([]Expr, len(xs))
	for i, x := range xs {
		es[i] = x.Expr
	}
	return es
}

func rAnd(xs ...ref) ref {
	return pred(And(exprsOf(xs)...), func(b *data.Batch, r int) bool {
		for _, x := range xs {
			if x.i(b, r) == 0 {
				return false
			}
		}
		return true
	})
}

func rOr(xs ...ref) ref {
	return pred(Or(exprsOf(xs)...), func(b *data.Batch, r int) bool {
		for _, x := range xs {
			if x.i(b, r) != 0 {
				return true
			}
		}
		return false
	})
}

func rNot(x ref) ref {
	return pred(Not(x.Expr), func(b *data.Batch, r int) bool { return x.i(b, r) == 0 })
}

// rLike and rNotLike match with the general backtracking matcher, not the
// shape-specialized one the kernels use.
func rLike(x ref, pattern string) ref {
	return pred(Like(x.Expr, pattern), func(b *data.Batch, r int) bool { return likeMatch(pattern, x.s(b, r)) })
}

func rNotLike(x ref, pattern string) ref {
	return pred(NotLike(x.Expr, pattern), func(b *data.Batch, r int) bool { return !likeMatch(pattern, x.s(b, r)) })
}

func rInStr(x ref, vals ...string) ref {
	return pred(InStr(x.Expr, vals...), func(b *data.Batch, r int) bool { return slices.Contains(vals, x.s(b, r)) })
}

func rInInt(x ref, vals ...int64) ref {
	return pred(InInt(x.Expr, vals...), func(b *data.Batch, r int) bool { return slices.Contains(vals, x.i(b, r)) })
}

func rIsNotNull(s *data.Schema, name string) ref {
	c := s.MustIndex(name)
	return pred(IsNotNull(s, name), func(b *data.Batch, r int) bool { return !b.IsNull(c, r) })
}

func rYear(x ref) ref {
	return ref{Expr: YearOf(x.Expr), i: func(b *data.Batch, r int) int64 { return data.Year(x.i(b, r)) }}
}

func rSubstr(x ref, start, length int) ref {
	return ref{Expr: Substr(x.Expr, start, length), s: func(b *data.Batch, r int) string {
		v := x.s(b, r)
		lo := start - 1
		if lo < 0 || lo >= len(v) {
			return ""
		}
		hi := lo + length
		if hi > len(v) {
			hi = len(v)
		}
		return v[lo:hi]
	}}
}

func rCase(c, then, els ref) ref {
	x := ref{Expr: Case(c.Expr, then.Expr, els.Expr)}
	switch x.Type {
	case data.String:
		x.s = func(b *data.Batch, r int) string {
			if c.i(b, r) != 0 {
				return then.s(b, r)
			}
			return els.s(b, r)
		}
	case data.Float64:
		tf, ef := then.fl(), els.fl()
		x.f = func(b *data.Batch, r int) float64 {
			if c.i(b, r) != 0 {
				return tf(b, r)
			}
			return ef(b, r)
		}
	default:
		x.i = func(b *data.Batch, r int) int64 {
			if c.i(b, r) != 0 {
				return then.i(b, r)
			}
			return els.i(b, r)
		}
	}
	return x
}

// q19Branch is one of Q19's three disjuncts over propSchema's columns.
func q19Branch(s *data.Schema, word string, words []string, lo, hi float64, amax int64) ref {
	return rAnd(
		rCmp("=", rSubstr(rCol(s, "s"), 1, len(word)), rStr(word)),
		rInStr(rCol(s, "s"), words...),
		rCmp(">=", rCol(s, "f"), rFloat(lo)),
		rCmp("<=", rCol(s, "f"), rFloat(hi)),
		rCmp(">=", rCol(s, "a"), rInt(1)),
		rCmp("<=", rCol(s, "a"), rInt(amax)),
	)
}

// propBoolExprs covers the predicate shapes the kernel builders specialize
// on: col⊗const and col⊗col comparisons in all three type lanes, reversed
// operands, fused AND chains, OR and NOT, LIKE, IN, IsNotNull, comparisons
// over composed arithmetic and over SUBSTRING, and Bool values — a bool
// column, literals, And() and Or() — used as predicates.
func propBoolExprs(s *data.Schema) []ref {
	a, bc, f, g, str, d, q := rCol(s, "a"), rCol(s, "b"), rCol(s, "f"), rCol(s, "g"), rCol(s, "s"), rCol(s, "d"), rCol(s, "q")
	return []ref{
		rCmp("<", a, rInt(7)),
		rCmp(">=", rInt(7), a),
		rCmp("=", a, bc),
		rCmp("<>", f, rFloat(0.25)),
		rCmp("<", f, g),
		rCmp(">", rMul(f, g), rFloat(1.5)),
		rCmp("<=", str, rStr("RAIL")),
		rCmp("=", str, rStr("MAIL3")),
		rCmp(">", rAsFloat(a), g),
		rAnd(rCmp(">", a, rInt(0)), rCmp("<", f, rFloat(10)), rCmp("<>", bc, rInt(3))),
		rOr(rCmp("<", a, rInt(-5)), rCmp(">", g, rFloat(0.9))),
		rNot(rCmp("<", a, bc)),
		rLike(str, "%AI%"),
		rNotLike(str, "S%"),
		rInStr(str, "MAIL0", "AIR1", "FOB2"),
		rInInt(a, 1, 2, 3),
		rIsNotNull(s, "n"),
		rCmp(">", rYear(d), rInt(1995)),

		// Q19: an Or of Ands.
		rOr(
			q19Branch(s, "MAIL", []string{"MAIL0", "MAIL1", "MAIL2"}, -50, 10, 20),
			q19Branch(s, "SHIP", []string{"SHIP1", "SHIP3", "SHIP4"}, -10, 30, 30),
			q19Branch(s, "AIR", []string{"AIR0", "AIR4"}, 0, 50, 40),
		),
		rNot(rAnd(rCmp(">", a, rInt(0)), rLike(str, "%A%"))),
		rOr(rCmp(">", f, rFloat(0))),
		rOr(rCmp("<", a, rInt(0)), q),
		rNot(q),
		// Q22: IN over SUBSTRING; LIKE and string comparisons over it.
		rInStr(rSubstr(str, 1, 2), "MA", "SH", "AI"),
		rLike(rSubstr(str, 2, 3), "%AI%"),
		rNotLike(rSubstr(str, 1, 4), "RA%"),
		rCmp("<", rSubstr(str, 1, 3), rStr("RAI")),
		rCmp(">=", rStr("M"), rSubstr(str, 1, 1)),
		rCmp("=", rSubstr(str, 1, 1), rSubstr(str, 2, 1)),
		rInInt(rAdd(a, bc), 5, 10, 15, 20),
		// Bool values used as predicates.
		q,
		rBool(true),
		rBool(false),
		rAnd(),
		rOr(),
		rAnd(q, rCmp(">", f, rFloat(0))),
		rAnd(rCmp(">", f, rFloat(0)), q),
		rCmp("=", q, rBool(true)),
		rCase(rCmp(">", a, rInt(10)), rCmp("<", f, g), q),
	}
}

// propIntExprs are integer-lane values; every propBoolExprs shape is also
// checked through EvalI.
func propIntExprs(s *data.Schema) []ref {
	a, bc, d, str, q := rCol(s, "a"), rCol(s, "b"), rCol(s, "d"), rCol(s, "s"), rCol(s, "q")
	return []ref{
		a,
		rInt(42),
		rAdd(a, bc),
		rSub(a, rInt(3)),
		rMul(rAdd(a, rInt(1)), bc),
		rYear(d),
		// Q12: CASE over IN.
		rCase(rInStr(str, "MAIL1", "SHIP2", "AIR3"), rInt(1), rInt(0)),
		rCase(rCmp("<", a, bc), a, rInt(-1)),
		rCase(q, rAdd(a, bc), rYear(d)),
		rCase(rCmp(">", a, rInt(100)), d, rDate("1995-06-01")),
	}
}

func propFloatExprs(s *data.Schema) []ref {
	a, f, g, str, q := rCol(s, "a"), rCol(s, "f"), rCol(s, "g"), rCol(s, "s"), rCol(s, "q")
	return []ref{
		f,
		rFloat(2.5),
		rAsFloat(a),
		rAdd(f, g),
		rMul(f, rSub(rFloat(1), g)),
		rMul(rMul(f, rSub(rFloat(1), g)), rAdd(rFloat(1), g)),
		rDiv(f, g),
		// Q8 and Q14: CASE over a comparison and over LIKE.
		rCase(rCmp(">", f, rFloat(0)), rMul(f, rSub(rFloat(1), g)), rFloat(0)),
		rCase(rLike(str, "%AI%"), f, rFloat(0)),
		rCase(q, a, g),
		rAsFloat(rCmp("<", a, rInt(5))),
		rDiv(rAdd(a, rCol(s, "b")), rInt(3)),
	}
}

func propStrExprs(s *data.Schema) []ref {
	a, str, q := rCol(s, "a"), rCol(s, "s"), rCol(s, "q")
	return []ref{
		str,
		rStr("x"),
		rSubstr(str, 1, 4),
		rSubstr(str, 3, 100),
		rSubstr(str, 10, 3), // past every value's end
		rSubstr(str, 0, 3),
		rSubstr(rSubstr(str, 2, 5), 2, 2),
		rCase(rCmp(">", a, rInt(5)), str, rStr("none")),
		rCase(q, rSubstr(str, 1, 2), str),
	}
}

func selEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExprMatchesReference: for random batches (with and without null masks
// and selection vectors, the empty one included), every kernel must produce
// exactly the rows and values the per-row reference produces — bit-identical
// for floats. Every Bool expression is checked through EvalBool and EvalI.
func TestExprMatchesReference(t *testing.T) {
	s := propSchema
	bools, ints := propBoolExprs(s), propIntExprs(s)
	floats, strs := propFloatExprs(s), propStrExprs(s)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randPropBatch(rng)
		sel, n := b.Sel, b.Rows()
		for ei, x := range bools {
			var want []int32
			for i := 0; i < n; i++ {
				if x.i(b, b.Row(i)) != 0 {
					want = append(want, int32(b.Row(i)))
				}
			}
			if got := x.EvalBool(b, sel, nil); !selEqual(got, want) {
				t.Logf("seed %d bool expr %d: kernel %v, reference %v", seed, ei, got, want)
				return false
			}
		}
		for ei, x := range append(ints, bools...) {
			got := make([]int64, n)
			x.EvalI(b, sel, got)
			for i, v := range got {
				if want := x.i(b, b.Row(i)); v != want {
					t.Logf("seed %d int expr %d row %d: kernel %d, reference %d", seed, ei, i, v, want)
					return false
				}
			}
		}
		for ei, x := range floats {
			got := make([]float64, n)
			x.EvalF(b, sel, got)
			for i, v := range got {
				if want := x.f(b, b.Row(i)); math.Float64bits(v) != math.Float64bits(want) {
					t.Logf("seed %d float expr %d row %d: kernel %v, reference %v", seed, ei, i, v, want)
					return false
				}
			}
		}
		for ei, x := range strs {
			got := make([]string, n)
			x.EvalS(b, sel, got)
			for i, v := range got {
				if want := x.s(b, b.Row(i)); v != want {
					t.Logf("seed %d string expr %d row %d: kernel %q, reference %q", seed, ei, i, v, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEvalBoolRefinesSelection checks the selection-vector contract
// directly: EvalBool over an input selection returns an ascending subset
// of it, and a fused AND chain equals refining each conjunct in turn.
func TestEvalBoolRefinesSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		b := randPropBatch(rng)
		s := propSchema
		conj := []Expr{
			Cmp(">", Col(s, "a"), ConstInt(0)),
			Cmp("<", Col(s, "f"), ConstFloat(20)),
			Cmp("<>", Col(s, "b"), ConstInt(3)),
		}
		fused := And(conj...).EvalBool(b, b.Sel, nil)
		step := b.Sel
		for _, c := range conj {
			// A non-nil out: an empty step must not read as "all rows".
			step = c.EvalBool(b, step, []int32{})
		}
		if !selEqual(fused, step) {
			t.Fatalf("trial %d: fused AND %v != stepwise refinement %v", trial, fused, step)
		}
		prev := int32(-1)
		for _, r := range fused {
			if r <= prev {
				t.Fatalf("trial %d: selection not ascending: %v", trial, fused)
			}
			prev = r
		}
	}
}

func benchBatch(n int) *data.Batch {
	rng := rand.New(rand.NewSource(1))
	b := data.NewBatch(propSchema, n)
	for i := 0; i < n; i++ {
		b.Cols[0].I = append(b.Cols[0].I, int64(rng.Intn(50)-10))
		b.Cols[1].I = append(b.Cols[1].I, int64(rng.Intn(50)))
		b.Cols[2].F = append(b.Cols[2].F, rng.Float64()*100-50)
		b.Cols[3].F = append(b.Cols[3].F, rng.Float64())
		b.Cols[4].S = append(b.Cols[4].S, "MODE"+fmt.Sprint(rng.Intn(8)))
		b.Cols[5].I = append(b.Cols[5].I, data.DateOf(1992+rng.Intn(7), 1+rng.Intn(12), 1+rng.Intn(28)))
		b.Cols[6].I = append(b.Cols[6].I, int64(rng.Intn(10)))
		b.Cols[7].I = append(b.Cols[7].I, int64(rng.Intn(2)))
	}
	b.SetLen(n)
	return b
}

// BenchmarkFilterVectorized times a Q6-shaped conjunction: date range +
// float range + int threshold, the dominant predicate shape in TPC-H scans.
func BenchmarkFilterVectorized(b *testing.B) {
	batch := benchBatch(4096)
	s := propSchema
	pred := And(
		Cmp(">=", Col(s, "d"), ConstDate("1994-01-01")),
		Cmp("<", Col(s, "d"), ConstDate("1995-01-01")),
		Cmp(">=", Col(s, "g"), ConstFloat(0.05)),
		Cmp("<=", Col(s, "g"), ConstFloat(0.07)),
		Cmp("<", Col(s, "a"), ConstInt(24)),
	)
	var sel []int32
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = pred.EvalBool(batch, nil, sel[:0])
	}
	_ = sel
}

// BenchmarkProjectVectorized times a Q1-shaped measure: f * (1 - g).
func BenchmarkProjectVectorized(b *testing.B) {
	batch := benchBatch(4096)
	s := propSchema
	e := Mul(Col(s, "f"), Sub(ConstFloat(1), Col(s, "g")))
	out := make([]float64, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvalF(batch, nil, out)
	}
}

// residualBatch is a 4096-row batch shaped like the rows Q19's residual
// filter and Q12's projection see after their joins.
func residualBatch() *data.Batch {
	rng := rand.New(rand.NewSource(1))
	schema := data.NewSchema(
		data.ColumnDef{Name: "p_brand", Type: data.String},
		data.ColumnDef{Name: "p_container", Type: data.String},
		data.ColumnDef{Name: "l_quantity", Type: data.Float64},
		data.ColumnDef{Name: "p_size", Type: data.Int64},
		data.ColumnDef{Name: "o_orderpriority", Type: data.String},
	)
	sizes := []string{"SM", "MED", "LG", "JUMBO", "WRAP"}
	kinds := []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
	prios := []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	b := data.NewBatch(schema, 4096)
	for i := 0; i < 4096; i++ {
		b.Cols[0].S = append(b.Cols[0].S, fmt.Sprintf("Brand#%d%d", 1+rng.Intn(5), 1+rng.Intn(5)))
		b.Cols[1].S = append(b.Cols[1].S, sizes[rng.Intn(len(sizes))]+" "+kinds[rng.Intn(len(kinds))])
		b.Cols[2].F = append(b.Cols[2].F, float64(1+rng.Intn(50)))
		b.Cols[3].I = append(b.Cols[3].I, int64(1+rng.Intn(50)))
		b.Cols[4].S = append(b.Cols[4].S, prios[rng.Intn(len(prios))])
	}
	b.SetLen(4096)
	return b
}

// BenchmarkExprResidual times the expression shapes that sit above a join:
// Q19's Or of three Ands as a filter, and Q12's two CASE-over-IN counters as
// a projection. It uses only the exported constructors and Eval* entry
// points.
func BenchmarkExprResidual(b *testing.B) {
	batch := residualBatch()
	s := batch.Schema
	col := func(name string) Expr { return Col(s, name) }
	branch := func(brand string, containers []string, qlo, qhi float64, smax int64) Expr {
		return And(
			Cmp("=", col("p_brand"), ConstStr(brand)),
			InStr(col("p_container"), containers...),
			Cmp(">=", col("l_quantity"), ConstFloat(qlo)),
			Cmp("<=", col("l_quantity"), ConstFloat(qhi)),
			Cmp(">=", col("p_size"), ConstInt(1)),
			Cmp("<=", col("p_size"), ConstInt(smax)),
		)
	}
	q19 := Or(
		branch("Brand#12", []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11, 5),
		branch("Brand#23", []string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 20, 10),
		branch("Brand#34", []string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30, 15),
	)
	high := InStr(col("o_orderpriority"), "1-URGENT", "2-HIGH")
	q12 := []Expr{Case(high, ConstInt(1), ConstInt(0)), Case(high, ConstInt(0), ConstInt(1))}
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.Len()), "ns/row")
	}
	b.Run("Q19", func(b *testing.B) {
		var sel []int32
		for i := 0; i < b.N; i++ {
			sel = q19.EvalBool(batch, nil, sel[:0])
		}
		perRow(b)
	})
	b.Run("Q12", func(b *testing.B) {
		out := make([]int64, batch.Len())
		for i := 0; i < b.N; i++ {
			for _, e := range q12 {
				e.EvalI(batch, nil, out)
			}
		}
		perRow(b)
	})
}

// BenchmarkBatchEncode times materialization alone — sizing, reserving and
// encoding through a worker's Umami buffer — in ns per tuple: rows shaped
// like Q21's partial aggregates (two integer keys, 17-byte tuples) and rows
// with two strings, into an unpartitioned buffer and a 64-way partitioned
// one. One op materializes 64 Ki rows; the buffer's pages are recycled
// between ops, outside the timer.
func BenchmarkBatchEncode(b *testing.B) {
	const rows = 64 << 10
	int2 := data.NewBatch(data.NewSchema(
		data.ColumnDef{Name: "k1", Type: data.Int64},
		data.ColumnDef{Name: "k2", Type: data.Int64},
	), rows)
	strs := data.NewBatch(data.NewSchema(
		data.ColumnDef{Name: "k", Type: data.Int64},
		data.ColumnDef{Name: "name", Type: data.String},
		data.ColumnDef{Name: "price", Type: data.Float64},
		data.ColumnDef{Name: "comment", Type: data.String},
	), rows)
	for i := 0; i < rows; i++ {
		int2.Cols[0].I = append(int2.Cols[0].I, int64(i*7919%rows))
		int2.Cols[1].I = append(int2.Cols[1].I, int64(i%5000))
		strs.Cols[0].I = append(strs.Cols[0].I, int64(i))
		strs.Cols[1].S = append(strs.Cols[1].S, fmt.Sprintf("Supplier#%09d", i%1000))
		strs.Cols[2].F = append(strs.Cols[2].F, float64(i)*0.25)
		strs.Cols[3].S = append(strs.Cols[3].S, "carefully final deposits"[:8+i%16])
	}
	int2.SetLen(rows)
	strs.SetLen(rows)
	for _, shape := range []struct {
		name  string
		batch *data.Batch
	}{{"Int2", int2}, {"Strings", strs}} {
		rc := data.NewRowCodec(shape.batch.Schema.Types())
		hs := data.HashColumns(shape.batch, nil, []int{0}, nil)
		for _, mode := range []struct {
			name string
			mode core.Mode
		}{{"Unpartitioned", core.ModeNeverPartition}, {"Partitioned64", core.ModeAlwaysPartition}} {
			b.Run(shape.name+"/"+mode.name, func(b *testing.B) {
				var be batchEncoder
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s := core.NewShared(core.Config{Mode: mode.mode, Partitions: 64})
					buf := s.NewBuffer()
					b.StartTimer()
					be.encode(buf, rc, shape.batch, nil, hs)
					b.StopTimer()
					if err := buf.Finish(); err != nil {
						b.Fatal(err)
					}
					res, _ := s.Finalize()
					res.ReleaseMemory(nil)
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/tuple")
			})
		}
	}
}

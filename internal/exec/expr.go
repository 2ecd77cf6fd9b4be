package exec

import (
	"fmt"
	"math"
	"strings"

	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/xhash"
)

// Expr is a compiled scalar expression over batches. Each constructor builds
// exactly one batch kernel for the expression's lane (see vector.go) — the
// stdlib-Go stand-in for the per-query code generation the paper's engine
// performs. Kernels compose through their operands' Eval* methods.
//
// A Bool expression answers both EvalBool and EvalI: it is built either as a
// selection (comparisons, And, Or, Not, LIKE, IN, IS NOT NULL) or as values
// (a bool column, ConstBool, And() and Or()), and EvalBool/EvalI derive the
// other form.
type Expr struct {
	Type data.Type

	// The kernel: vecSel for a Bool built as a selection, vecF for Float64,
	// vecS for String, vecI for every other type.
	vecSel selKernel
	vecI   kernel[int64]
	vecF   kernel[float64]
	vecS   kernel[string]

	// Shape metadata the kernel builders specialize on: col1 is the
	// referenced column index + 1 for bare column refs (0 = not a column);
	// constant marks literals, with the value in the cI/cF/cS matching Type.
	col1     int32
	constant bool
	cI       int64
	cF       float64
	cS       string

	// fp is the expression's structural fingerprint, set by every
	// constructor (see fingerprint.go). Kernels erase structure, so the hash
	// is recorded at construction time; 0 marks the zero Expr.
	fp uint64
}

// fpSeed seeds every fingerprint hash in the package.
const fpSeed uint64 = 0x5ca1ab1e

// fpEmptyExpr tags the zero Expr (e.g. an absent scan filter).
const fpEmptyExpr uint64 = 0xe321a97b0d15ea5e

// fpNz keeps legitimate fingerprints out of the 0 = "uncacheable" sentinel.
func fpNz(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}

// fpNode hashes an op tag with its ordered parts, propagating the
// uncacheable sentinel: any zero part zeroes the result.
func fpNode(op string, parts ...uint64) uint64 {
	h := xhash.String(op, fpSeed)
	for _, p := range parts {
		if p == 0 {
			return 0
		}
		h = xhash.Combine(h, p)
	}
	return fpNz(h)
}

// isZero reports the zero Expr: no expression, such as an absent filter.
func (e Expr) isZero() bool { return e.fp == 0 }

// fingerprint returns the expression's structural fingerprint: the recorded
// hash, or a fixed tag for the zero Expr.
func (e Expr) fingerprint() uint64 {
	if e.isZero() {
		return fpEmptyExpr
	}
	return e.fp
}

func fingerprints(es []Expr) []uint64 {
	fps := make([]uint64, len(es))
	for i, e := range es {
		fps[i] = e.fingerprint()
	}
	return fps
}

func (e Expr) isColRef() bool { return e.col1 != 0 }
func (e Expr) colIdx() int    { return int(e.col1) - 1 }
func (e Expr) isConst() bool  { return e.constant }

// needLane panics, naming the constructor fn, unless e's values are strings
// (str) or integers (Int64, Date, Bool): a wrong lane would otherwise surface
// only at run time, as a nil kernel inside a worker.
func needLane(fn string, e Expr, str bool) {
	if (e.Type == data.String) != str || e.Type == data.Float64 {
		want := "an integer"
		if str {
			want = "a string"
		}
		panic(fmt.Sprintf("exec: %s needs %s operand, got %v", fn, want, e.Type))
	}
}

// AsFloat coerces a numeric expression to float64 evaluation.
func (e Expr) AsFloat() Expr {
	switch e.Type {
	case data.Float64:
		return e
	case data.Int64, data.Date, data.Bool:
		fp := fpNode("asfloat", e.fingerprint())
		if e.constant {
			out := ConstFloat(float64(e.cI))
			out.fp = fp
			return out
		}
		out := Expr{Type: data.Float64, fp: fp}
		if e.isColRef() {
			ci := e.colIdx()
			out.vecF = func(ba *data.Batch, sel []int32, o []float64) {
				vals := ba.Cols[ci].I
				if sel == nil {
					for j := range o {
						o[j] = float64(vals[j])
					}
					return
				}
				for j, r := range sel {
					o[j] = float64(vals[r])
				}
			}
			return out
		}
		out.vecF = func(ba *data.Batch, sel []int32, o []float64) {
			xp := i64Pool.get(len(o))
			e.EvalI(ba, sel, *xp)
			for j, x := range *xp {
				o[j] = float64(x)
			}
			i64Pool.put(xp)
		}
		return out
	default:
		panic(fmt.Sprintf("exec: cannot coerce %v to float", e.Type))
	}
}

// Col compiles a column reference. Its kernel is a copy of the column, or a
// gather through the selection vector.
func Col(s *data.Schema, name string) Expr {
	idx := s.MustIndex(name)
	t := s.Cols[idx].Type
	e := Expr{Type: t, col1: int32(idx) + 1, fp: fpNode("col", xhash.String(name, fpSeed),
		xhash.U64(uint64(idx), fpSeed), xhash.U64(uint64(t), fpSeed))}
	switch t {
	case data.Float64:
		e.vecF = gather(floatLane, idx)
	case data.String:
		e.vecS = gather(strLane, idx)
	default:
		e.vecI = gather(intLane, idx)
	}
	return e
}

func constIntExpr(t data.Type, v int64) Expr {
	return Expr{Type: t, constant: true, cI: v, vecI: fill(v),
		fp: fpNode("consti", xhash.U64(uint64(t), fpSeed), xhash.U64(uint64(v), fpSeed))}
}

// ConstInt compiles an integer literal.
func ConstInt(v int64) Expr { return constIntExpr(data.Int64, v) }

// ConstFloat compiles a float literal.
func ConstFloat(v float64) Expr {
	return Expr{Type: data.Float64, constant: true, cF: v, vecF: fill(v),
		fp: fpNode("constf", xhash.U64(math.Float64bits(v), fpSeed))}
}

// ConstStr compiles a string literal.
func ConstStr(v string) Expr {
	return Expr{Type: data.String, constant: true, cS: v, vecS: fill(v),
		fp: fpNode("consts", xhash.String(v, fpSeed))}
}

// ConstDate compiles a date literal from "YYYY-MM-DD".
func ConstDate(s string) Expr { return constIntExpr(data.Date, data.ParseDate(s)) }

// ConstBool compiles a boolean literal.
func ConstBool(v bool) Expr {
	i := int64(0)
	if v {
		i = 1
	}
	return constIntExpr(data.Bool, i)
}

// arith compiles a op b; an int operand is promoted when the other is a
// float, and two literals fold into one.
func arith(a, b Expr, op arithOp) Expr {
	fp := fpNode("arith", xhash.U64(uint64(op), fpSeed), a.fingerprint(), b.fingerprint())
	if a.Type == data.Float64 || b.Type == data.Float64 {
		return floatArith(a.AsFloat(), b.AsFloat(), op, fp)
	}
	if a.constant && b.constant {
		return ConstInt(applyOp(op, a.cI, b.cI))
	}
	return Expr{Type: data.Int64, fp: fp, vecI: arithKernel(intLane, a, b, op)}
}

func floatArith(a, b Expr, op arithOp, fp uint64) Expr {
	if a.constant && b.constant {
		return ConstFloat(applyOp(op, a.cF, b.cF))
	}
	return Expr{Type: data.Float64, fp: fp, vecF: arithKernel(floatLane, a, b, op)}
}

// Add compiles a + b with int→float promotion.
func Add(a, b Expr) Expr { return arith(a, b, aAdd) }

// Sub compiles a - b.
func Sub(a, b Expr) Expr { return arith(a, b, aSub) }

// Mul compiles a * b.
func Mul(a, b Expr) Expr { return arith(a, b, aMul) }

// Div compiles a / b (always float, SQL decimal division).
func Div(a, b Expr) Expr {
	return floatArith(a.AsFloat(), b.AsFloat(), aDiv, fpNode("div", a.fingerprint(), b.fingerprint()))
}

// Cmp compiles a comparison. op is one of "<", "<=", ">", ">=", "=", "<>".
// Both operands are compared in one lane: strings, floats (an int operand
// is promoted when the other is a float) or integers.
func Cmp(op string, a, b Expr) Expr {
	o := cmpOpOf(op)
	e := Expr{Type: data.Bool, fp: fpNode("cmp", xhash.String(op, fpSeed), a.fingerprint(), b.fingerprint())}
	switch {
	case a.Type == data.String || b.Type == data.String:
		if a.Type != data.String || b.Type != data.String {
			panic("exec: comparing string with non-string")
		}
		e.vecSel = cmpKernel(strLane, o, a, b)
	case a.Type == data.Float64 || b.Type == data.Float64:
		e.vecSel = cmpKernel(floatLane, o, a.AsFloat(), b.AsFloat())
	default:
		e.vecSel = cmpKernel(intLane, o, a, b)
	}
	return e
}

// And compiles a short-circuit conjunction: a fused filter chain. The first
// conjunct produces a selection vector and each following conjunct refines
// it in place, so later (often more expensive) predicates only ever see rows
// that survived the earlier ones — batch-level short-circuiting. And() is
// true.
func And(exprs ...Expr) Expr {
	fp := fpNode("and", fingerprints(exprs)...)
	if len(exprs) == 0 {
		e := ConstBool(true)
		e.fp = fp
		return e
	}
	es := append([]Expr(nil), exprs...)
	return Expr{Type: data.Bool, fp: fp, vecSel: func(b *data.Batch, sel []int32, out []int32) []int32 {
		out = es[0].EvalBool(b, sel, out)
		for _, c := range es[1:] {
			// Stop once the selection is empty: nothing left to refine, and a
			// nil out must not reach refineSel, where it would read as "all
			// physical rows".
			if len(out) == 0 {
				break
			}
			out = c.refineSel(b, out)
		}
		return out
	}}
}

// Or compiles a short-circuit disjunction, the mirror of And: each disjunct
// sees only the live rows no earlier disjunct accepted, and the result is
// the live rows minus those none accepted. Or() is false.
func Or(exprs ...Expr) Expr {
	fp := fpNode("or", fingerprints(exprs)...)
	if len(exprs) == 0 {
		e := ConstBool(false)
		e.fp = fp
		return e
	}
	es := append([]Expr(nil), exprs...)
	return Expr{Type: data.Bool, fp: fp, vecSel: func(b *data.Batch, sel []int32, out []int32) []int32 {
		n := liveRows(b, sel)
		rp, hp := selPool.get(n), selPool.get(n)
		rest := exceptRows((*rp)[:0], sel, n, nil)
		for _, c := range es {
			if len(rest) == 0 {
				break
			}
			rest = exceptRows(rest[:0], rest, len(rest), c.EvalBool(b, rest, (*hp)[:0]))
		}
		out = exceptRows(out, sel, n, rest)
		selPool.put(rp)
		selPool.put(hp)
		return out
	}}
}

// Not compiles a negation: the live rows minus the operand's selection.
func Not(e Expr) Expr {
	return Expr{Type: data.Bool, fp: fpNode("not", e.fingerprint()), vecSel: func(b *data.Batch, sel []int32, out []int32) []int32 {
		hp := selPool.get(liveRows(b, sel))
		out = exceptRows(out, sel, b.Len(), e.EvalBool(b, sel, (*hp)[:0]))
		selPool.put(hp)
		return out
	}}
}

// Like compiles a SQL LIKE pattern with % and _ wildcards.
func Like(e Expr, pattern string) Expr {
	needLane("Like", e, true)
	return Expr{Type: data.Bool, fp: fpNode("like", e.fingerprint(), xhash.String(pattern, fpSeed)),
		vecSel: matchKernel(strLane, e, compileLike(pattern), false)}
}

// NotLike compiles NOT LIKE.
func NotLike(e Expr, pattern string) Expr {
	needLane("NotLike", e, true)
	return Expr{Type: data.Bool, fp: fpNode("notlike", e.fingerprint(), xhash.String(pattern, fpSeed)),
		vecSel: matchKernel(strLane, e, compileLike(pattern), true)}
}

// compileLike builds a matcher for a LIKE pattern, fast-pathing the common
// shapes (%x%, x%, %x, exact) and falling back to a general matcher.
func compileLike(pattern string) func(string) bool {
	if !strings.ContainsAny(pattern, "_") {
		parts := strings.Split(pattern, "%")
		switch {
		case len(parts) == 1:
			return func(s string) bool { return s == pattern }
		case len(parts) == 2 && parts[0] == "":
			suf := parts[1]
			return func(s string) bool { return strings.HasSuffix(s, suf) }
		case len(parts) == 2 && parts[1] == "":
			pre := parts[0]
			return func(s string) bool { return strings.HasPrefix(s, pre) }
		case len(parts) == 3 && parts[0] == "" && parts[2] == "":
			mid := parts[1]
			return func(s string) bool { return strings.Contains(s, mid) }
		default:
			// General %-only pattern: ordered substring search.
			return func(s string) bool {
				rest := s
				for i, p := range parts {
					if p == "" {
						continue
					}
					idx := strings.Index(rest, p)
					if idx < 0 {
						return false
					}
					if i == 0 && idx != 0 {
						return false
					}
					rest = rest[idx+len(p):]
				}
				if last := parts[len(parts)-1]; last != "" && !strings.HasSuffix(s, last) {
					return false
				}
				return true
			}
		}
	}
	// General matcher with _ support (rare in TPC-H).
	return func(s string) bool { return likeMatch(pattern, s) }
}

func likeMatch(pattern, s string) bool {
	// Simple backtracking matcher.
	var pi, si, star, mark int
	star = -1
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// inSet returns the membership test of vals.
func inSet[T comparable](vals []T) func(T) bool {
	set := make(map[T]struct{}, len(vals))
	for _, v := range vals {
		set[v] = struct{}{}
	}
	return func(v T) bool {
		_, ok := set[v]
		return ok
	}
}

// InStr compiles membership in a string set.
func InStr(e Expr, vals ...string) Expr {
	needLane("InStr", e, true)
	fps := []uint64{e.fingerprint()}
	for _, v := range vals {
		fps = append(fps, xhash.String(v, fpSeed))
	}
	return Expr{Type: data.Bool, fp: fpNode("instr", fps...), vecSel: matchKernel(strLane, e, inSet(vals), false)}
}

// InInt compiles membership in an integer set.
func InInt(e Expr, vals ...int64) Expr {
	needLane("InInt", e, false)
	fps := []uint64{e.fingerprint()}
	for _, v := range vals {
		fps = append(fps, xhash.U64(uint64(v), fpSeed))
	}
	return Expr{Type: data.Bool, fp: fpNode("inint", fps...), vecSel: matchKernel(intLane, e, inSet(vals), false)}
}

// Case compiles CASE WHEN cond THEN a ELSE b END.
func Case(cond, then, els Expr) Expr {
	if then.Type != els.Type && !(then.Type != data.String && els.Type != data.String) {
		panic("exec: CASE branches of incompatible types")
	}
	e := Expr{Type: then.Type, fp: fpNode("case", cond.fingerprint(), then.fingerprint(), els.fingerprint())}
	switch {
	case then.Type == data.String:
		e.vecS = caseKernel(strLane, cond, then, els)
	case then.Type == data.Float64 || els.Type == data.Float64:
		e.Type = data.Float64
		e.vecF = caseKernel(floatLane, cond, then.AsFloat(), els.AsFloat())
	default:
		e.vecI = caseKernel(intLane, cond, then, els)
	}
	return e
}

// YearOf compiles EXTRACT(YEAR FROM date).
func YearOf(e Expr) Expr {
	needLane("YearOf", e, false)
	return Expr{Type: data.Int64, fp: fpNode("year", e.fingerprint()), vecI: func(b *data.Batch, sel []int32, o []int64) {
		e.EvalI(b, sel, o)
		for j := range o {
			o[j] = data.Year(o[j])
		}
	}}
}

// Substr compiles SUBSTRING(s FROM start FOR length) with 1-based start.
func Substr(e Expr, start, length int) Expr {
	needLane("Substr", e, true)
	fp := fpNode("substr", e.fingerprint(), xhash.U64(uint64(int64(start)), fpSeed), xhash.U64(uint64(int64(length)), fpSeed))
	lo := start - 1
	return Expr{Type: data.String, fp: fp, vecS: func(b *data.Batch, sel []int32, o []string) {
		e.EvalS(b, sel, o)
		for j, v := range o {
			if lo < 0 || lo >= len(v) {
				o[j] = ""
				continue
			}
			o[j] = v[lo:min(lo+length, len(v))]
		}
	}}
}

// IsNotNull compiles col IS NOT NULL for the named column.
func IsNotNull(s *data.Schema, name string) Expr {
	idx := s.MustIndex(name)
	fp := fpNode("isnotnull", xhash.String(name, fpSeed), xhash.U64(uint64(idx), fpSeed))
	return Expr{Type: data.Bool, fp: fp, vecSel: func(b *data.Batch, sel []int32, out []int32) []int32 {
		null := b.Cols[idx].Null
		if null == nil {
			// No null bitmap: every live row passes.
			return exceptRows(out, sel, b.Len(), nil)
		}
		if sel == nil {
			n := b.Len()
			for r := 0; r < n; r++ {
				if !null[r] {
					out = append(out, int32(r))
				}
			}
			return out
		}
		for _, r := range sel {
			if !null[r] {
				out = append(out, r)
			}
		}
		return out
	}}
}

package exec

// Batch kernels over compiled expressions: the one evaluator. Every Expr
// constructor (expr.go) builds one kernel that runs column-at-a-time over a
// batch's live rows, so the hot loops make one function call per *batch*
// instead of one per row. Column references and literals specialize the
// kernels that read them — comparisons, arithmetic, LIKE and IN read a
// column in place and fold a literal into the loop; any other operand is
// materialized through its own kernel into pooled scratch first. This is the
// stdlib-Go stand-in for the per-query vectorized code the paper's engine
// generates (see DESIGN.md §5 item 9).

import (
	"sync"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/pages"
)

// batchEncoder materializes rows of a batch through an Umami buffer: key
// hashes and tuple sizes are computed column-at-a-time, Buffer.Reserve hands
// out the destinations of a prefix of the rows on their pages, and the prefix
// is encoded column-at-a-time straight into them. Reserve's contract makes
// this safe: only a call's first tuple may take a fresh page, so nothing
// spills or moves a destination before the prefix is encoded.
type batchEncoder struct {
	hs    []uint64
	seq   []int32 // 0, 1, 2, …: see rows
	sizes []int
	dsts  [][]byte // views into the buffer's pages; cleared by free
}

// batchEncoders recycles the encoders of the workers that materialize with
// one of their own (join build, window): a worker takes one when it starts and
// hands it back when it finishes. An encoder holds nothing of its batches.
var batchEncoders pages.FreeList[batchEncoder]

// getBatchEncoder returns a recycled encoder, or a new one.
func getBatchEncoder() *batchEncoder {
	if be := batchEncoders.Get(); be != nil {
		return be
	}
	return &batchEncoder{}
}

// free lets go of the encoder's views into pages, which are recycled at
// operator end, so a reused encoder cannot reach a page's next owner.
func (be *batchEncoder) free() { clear(be.dsts[:cap(be.dsts)]) }

// encodeRows is how many rows are sized and reserved at a time: a wide 64
// Ki-row batch does not cost megabytes of sizes and destinations.
const encodeRows = 1024

// materialize encodes every live row of b into buf, partitioned by the hash
// of keyCols; the hashes stay in be.hs for the caller's sketch.
func (be *batchEncoder) materialize(buf *core.Buffer, rc *data.RowCodec, b *data.Batch, keyCols []int) {
	be.hs = data.HashColumns(b, b.Sel, keyCols, be.hs[:0])
	be.encode(buf, rc, b, b.Sel, be.hs)
}

// rows returns the selection of every row of an n-row batch: 0 … n-1.
func (be *batchEncoder) rows(n int) []int32 {
	be.seq = iota32(be.seq, n)
	return be.seq
}

// encode encodes the rows sel of b (nil = every physical row) into buf; hs
// holds their key hashes.
func (be *batchEncoder) encode(buf *core.Buffer, rc *data.RowCodec, b *data.Batch, sel []int32, hs []uint64) {
	if sel == nil {
		sel = be.rows(len(hs))
	}
	for len(sel) > 0 {
		n := min(len(sel), encodeRows)
		be.sizes = rc.SizeAll(b, sel[:n], be.sizes[:0])
		be.dsts = sized(be.dsts, n)
		for i := 0; i < n; {
			k := buf.Reserve(be.sizes[i:n], hs[i:n], be.dsts[i:n])
			rc.EncodeAll(be.dsts[i:i+k], b, sel[i:i+k])
			i += k
		}
		sel, hs = sel[n:], hs[n:]
	}
}

// selKernel is a predicate's kernel: it appends to out the rows of sel (nil
// = every physical row) that pass, in ascending order.
type selKernel func(b *data.Batch, sel []int32, out []int32) []int32

// kernel is a value kernel: it writes the value of the i-th live row of b
// to out[i]; out is sized to the live row count.
type kernel[T any] func(b *data.Batch, sel []int32, out []T)

// EvalBool evaluates a boolean expression over the live rows of b,
// appending the physical indices of passing rows to out (returned) — the
// selection-vector form of a filter. sel selects the rows to test (nil =
// all physical rows). out must not alias sel unless writing in ascending
// positions ≤ the read position is acceptable (it is for in-place
// refinement: survivors are a subset written monotonically).
func (e Expr) EvalBool(b *data.Batch, sel []int32, out []int32) []int32 {
	if e.vecSel != nil {
		return e.vecSel(b, sel, out)
	}
	// A Bool built as values: non-zero selects.
	xp := i64Pool.get(liveRows(b, sel))
	e.vecI(b, sel, *xp)
	out = cmpDenseConst(*xp, 0, opNe, sel, out)
	i64Pool.put(xp)
	return out
}

// refineSel filters sel in place by e, returning the surviving prefix.
func (e Expr) refineSel(b *data.Batch, sel []int32) []int32 {
	return e.EvalBool(b, sel, sel[:0])
}

// EvalI evaluates an integer-typed expression for every live row of b
// into out, which must be sized to the live row count.
func (e Expr) EvalI(b *data.Batch, sel []int32, out []int64) {
	if e.vecI != nil {
		e.vecI(b, sel, out)
		return
	}
	// A Bool built as a selection: a selected row is 1, any other 0.
	hp := selPool.get(len(out))
	hits := e.vecSel(b, sel, (*hp)[:0])
	k := 0
	for j := range out {
		out[j] = 0
		if k < len(hits) && hits[k] == rowAt(sel, j) {
			out[j] = 1
			k++
		}
	}
	selPool.put(hp)
}

// EvalF evaluates a float expression for every live row of b into out.
func (e Expr) EvalF(b *data.Batch, sel []int32, out []float64) { e.vecF(b, sel, out) }

// EvalS evaluates a string expression for every live row of b into out.
func (e Expr) EvalS(b *data.Batch, sel []int32, out []string) { e.vecS(b, sel, out) }

// grow extends s by n zero/empty elements, reallocating only when needed,
// and returns the extended slice (write into the last n positions).
func grow[T any](s []T, n int) []T {
	m := len(s)
	if cap(s) >= m+n {
		// No zeroing: every caller overwrites the n new positions in full.
		return s[:m+n]
	}
	ns := make([]T, m+n, (m+n)*2)
	copy(ns, s)
	return ns
}

func liveRows(b *data.Batch, sel []int32) int {
	if sel != nil {
		return len(sel)
	}
	return b.Len()
}

// rowAt is the physical row of the j-th live row.
func rowAt(sel []int32, j int) int32 {
	if sel == nil {
		return int32(j)
	}
	return sel[j]
}

// exceptRows appends to out the live rows — sel, or 0 … n-1 when sel is nil
// — that are not in drop, an ascending subset of them. out may be sel[:0].
func exceptRows(out, sel []int32, n int, drop []int32) []int32 {
	if sel != nil {
		n = len(sel)
	}
	k := 0
	for j := 0; j < n; j++ {
		r := rowAt(sel, j)
		if k < len(drop) && drop[k] == r {
			k++
			continue
		}
		out = append(out, r)
	}
	return out
}

// --- scratch pools for composed kernels ---

// scratch pools the slices composed kernels materialize operands into.
type scratch[T any] struct{ p sync.Pool }

// get returns a pooled slice of length n.
func (s *scratch[T]) get(n int) *[]T {
	p, _ := s.p.Get().(*[]T)
	if p == nil {
		p = new([]T)
	}
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return p
}

func (s *scratch[T]) put(p *[]T) { s.p.Put(p) }

var (
	i64Pool scratch[int64]
	f64Pool scratch[float64]
	strPool scratch[string]
	selPool scratch[int32]
)

// --- lanes ---

// lane is one of the three value lanes kernels are built for: how to read a
// column, evaluate an operand and take a literal's value, and where to get
// scratch.
type lane[T any] struct {
	col   func(c *data.Column) []T
	eval  func(e Expr, b *data.Batch, sel []int32, out []T)
	konst func(e Expr) T
	pool  *scratch[T]
}

var (
	intLane   = lane[int64]{func(c *data.Column) []int64 { return c.I }, Expr.EvalI, func(e Expr) int64 { return e.cI }, &i64Pool}
	floatLane = lane[float64]{func(c *data.Column) []float64 { return c.F }, Expr.EvalF, func(e Expr) float64 { return e.cF }, &f64Pool}
	strLane   = lane[string]{func(c *data.Column) []string { return c.S }, Expr.EvalS, func(e Expr) string { return e.cS }, &strPool}
)

// gather is a column reference's kernel: a copy of column idx, or a gather
// through the selection vector.
func gather[T any](ln lane[T], idx int) kernel[T] {
	return func(b *data.Batch, sel []int32, out []T) {
		vals := ln.col(&b.Cols[idx])
		if sel == nil {
			copy(out, vals)
			return
		}
		for i, r := range sel {
			out[i] = vals[r]
		}
	}
}

// fill is a literal's kernel.
func fill[T any](v T) kernel[T] {
	return func(_ *data.Batch, _ []int32, out []T) {
		for i := range out {
			out[i] = v
		}
	}
}

// matchKernel is the kernel of a one-operand predicate (LIKE, IN): the live
// rows whose value match accepts, or rejects when negate. A column reference
// is read in place; any other operand is materialized first.
func matchKernel[T any](ln lane[T], e Expr, match func(T) bool, negate bool) selKernel {
	if e.isColRef() {
		ci := e.colIdx()
		return func(b *data.Batch, sel []int32, out []int32) []int32 {
			vals := ln.col(&b.Cols[ci])
			if sel == nil {
				n := b.Len()
				for r := 0; r < n; r++ {
					if match(vals[r]) != negate {
						out = append(out, int32(r))
					}
				}
				return out
			}
			for _, r := range sel {
				if match(vals[r]) != negate {
					out = append(out, r)
				}
			}
			return out
		}
	}
	return func(b *data.Batch, sel []int32, out []int32) []int32 {
		xp := ln.pool.get(liveRows(b, sel))
		ln.eval(e, b, sel, *xp)
		for i, x := range *xp {
			if match(x) != negate {
				out = append(out, rowAt(sel, i))
			}
		}
		ln.pool.put(xp)
		return out
	}
}

// caseKernel evaluates els for every live row, then then for the rows cond
// selects, and puts those values in their rows' places.
func caseKernel[T any](ln lane[T], cond, then, els Expr) kernel[T] {
	return func(b *data.Batch, sel []int32, out []T) {
		ln.eval(els, b, sel, out)
		hp := selPool.get(len(out))
		if hits := cond.EvalBool(b, sel, (*hp)[:0]); len(hits) > 0 {
			vp := ln.pool.get(len(hits))
			ln.eval(then, b, hits, *vp)
			k := 0
			for j := range out {
				if rowAt(sel, j) == hits[k] {
					out[j] = (*vp)[k]
					if k++; k == len(hits) {
						break
					}
				}
			}
			ln.pool.put(vp)
		}
		selPool.put(hp)
	}
}

// --- comparison opcodes ---

type cmpOp int

const (
	opLt cmpOp = iota
	opLe
	opGt
	opGe
	opEq
	opNe
)

func cmpOpOf(op string) cmpOp {
	switch op {
	case "<":
		return opLt
	case "<=":
		return opLe
	case ">":
		return opGt
	case ">=":
		return opGe
	case "=":
		return opEq
	case "<>":
		return opNe
	}
	panic("exec: unknown comparison " + op)
}

// revOp mirrors an operator across swapped operands: a<b ⇔ b>a.
func revOp(op cmpOp) cmpOp {
	switch op {
	case opLt:
		return opGt
	case opLe:
		return opGe
	case opGt:
		return opLt
	case opGe:
		return opLe
	}
	return op // =, <> are symmetric
}

type ordered interface {
	~int64 | ~float64 | ~string
}

// cmpKernel builds a comparison's kernel in one lane. A literal on the left
// moves to the right with the operator mirrored; then a column against a
// literal or another column is compared in place, and any other operand is
// materialized first.
func cmpKernel[T ordered](ln lane[T], op cmpOp, a, b Expr) selKernel {
	if a.isConst() && !b.isConst() {
		a, b, op = b, a, revOp(op)
	}
	switch {
	case a.isColRef() && b.isConst():
		ci, k := a.colIdx(), ln.konst(b)
		return func(ba *data.Batch, sel []int32, out []int32) []int32 {
			return cmpColConstSel(ln.col(&ba.Cols[ci]), k, op, ba.Len(), sel, out)
		}
	case a.isColRef() && b.isColRef():
		ca, cb := a.colIdx(), b.colIdx()
		return func(ba *data.Batch, sel []int32, out []int32) []int32 {
			return cmpColColSel(ln.col(&ba.Cols[ca]), ln.col(&ba.Cols[cb]), op, ba.Len(), sel, out)
		}
	case b.isConst():
		k := ln.konst(b)
		return func(ba *data.Batch, sel []int32, out []int32) []int32 {
			xp := ln.pool.get(liveRows(ba, sel))
			ln.eval(a, ba, sel, *xp)
			out = cmpDenseConst(*xp, k, op, sel, out)
			ln.pool.put(xp)
			return out
		}
	default:
		return func(ba *data.Batch, sel []int32, out []int32) []int32 {
			n := liveRows(ba, sel)
			xp, yp := ln.pool.get(n), ln.pool.get(n)
			ln.eval(a, ba, sel, *xp)
			ln.eval(b, ba, sel, *yp)
			out = cmpDense(*xp, *yp, op, sel, out)
			ln.pool.put(xp)
			ln.pool.put(yp)
			return out
		}
	}
}

// cmpColConstSel compares a physical column slice against a constant over
// the live rows, appending passing physical indices to out. The opcode
// switch sits outside the loops, so each case is a tight branch-free-ish
// scan — the kernel behind pushed-down range predicates.
func cmpColConstSel[T ordered](vals []T, k T, op cmpOp, n int, sel []int32, out []int32) []int32 {
	if sel == nil {
		switch op {
		case opLt:
			for r := 0; r < n; r++ {
				if vals[r] < k {
					out = append(out, int32(r))
				}
			}
		case opLe:
			for r := 0; r < n; r++ {
				if vals[r] <= k {
					out = append(out, int32(r))
				}
			}
		case opGt:
			for r := 0; r < n; r++ {
				if vals[r] > k {
					out = append(out, int32(r))
				}
			}
		case opGe:
			for r := 0; r < n; r++ {
				if vals[r] >= k {
					out = append(out, int32(r))
				}
			}
		case opEq:
			for r := 0; r < n; r++ {
				if vals[r] == k {
					out = append(out, int32(r))
				}
			}
		case opNe:
			for r := 0; r < n; r++ {
				if vals[r] != k {
					out = append(out, int32(r))
				}
			}
		}
		return out
	}
	switch op {
	case opLt:
		for _, r := range sel {
			if vals[r] < k {
				out = append(out, r)
			}
		}
	case opLe:
		for _, r := range sel {
			if vals[r] <= k {
				out = append(out, r)
			}
		}
	case opGt:
		for _, r := range sel {
			if vals[r] > k {
				out = append(out, r)
			}
		}
	case opGe:
		for _, r := range sel {
			if vals[r] >= k {
				out = append(out, r)
			}
		}
	case opEq:
		for _, r := range sel {
			if vals[r] == k {
				out = append(out, r)
			}
		}
	case opNe:
		for _, r := range sel {
			if vals[r] != k {
				out = append(out, r)
			}
		}
	}
	return out
}

// cmpColColSel compares two physical column slices row-wise (e.g. Q12's
// l_commitdate < l_receiptdate).
func cmpColColSel[T ordered](xs, ys []T, op cmpOp, n int, sel []int32, out []int32) []int32 {
	if sel == nil {
		switch op {
		case opLt:
			for r := 0; r < n; r++ {
				if xs[r] < ys[r] {
					out = append(out, int32(r))
				}
			}
		case opLe:
			for r := 0; r < n; r++ {
				if xs[r] <= ys[r] {
					out = append(out, int32(r))
				}
			}
		case opGt:
			for r := 0; r < n; r++ {
				if xs[r] > ys[r] {
					out = append(out, int32(r))
				}
			}
		case opGe:
			for r := 0; r < n; r++ {
				if xs[r] >= ys[r] {
					out = append(out, int32(r))
				}
			}
		case opEq:
			for r := 0; r < n; r++ {
				if xs[r] == ys[r] {
					out = append(out, int32(r))
				}
			}
		case opNe:
			for r := 0; r < n; r++ {
				if xs[r] != ys[r] {
					out = append(out, int32(r))
				}
			}
		}
		return out
	}
	switch op {
	case opLt:
		for _, r := range sel {
			if xs[r] < ys[r] {
				out = append(out, r)
			}
		}
	case opLe:
		for _, r := range sel {
			if xs[r] <= ys[r] {
				out = append(out, r)
			}
		}
	case opGt:
		for _, r := range sel {
			if xs[r] > ys[r] {
				out = append(out, r)
			}
		}
	case opGe:
		for _, r := range sel {
			if xs[r] >= ys[r] {
				out = append(out, r)
			}
		}
	case opEq:
		for _, r := range sel {
			if xs[r] == ys[r] {
				out = append(out, r)
			}
		}
	case opNe:
		for _, r := range sel {
			if xs[r] != ys[r] {
				out = append(out, r)
			}
		}
	}
	return out
}

// cmpDenseConst compares densely materialized live-row values (index i is
// the i-th live row) against a constant, appending passing *physical*
// indices.
func cmpDenseConst[T ordered](xs []T, k T, op cmpOp, sel []int32, out []int32) []int32 {
	switch op {
	case opLt:
		for i := range xs {
			if xs[i] < k {
				out = append(out, rowAt(sel, i))
			}
		}
	case opLe:
		for i := range xs {
			if xs[i] <= k {
				out = append(out, rowAt(sel, i))
			}
		}
	case opGt:
		for i := range xs {
			if xs[i] > k {
				out = append(out, rowAt(sel, i))
			}
		}
	case opGe:
		for i := range xs {
			if xs[i] >= k {
				out = append(out, rowAt(sel, i))
			}
		}
	case opEq:
		for i := range xs {
			if xs[i] == k {
				out = append(out, rowAt(sel, i))
			}
		}
	case opNe:
		for i := range xs {
			if xs[i] != k {
				out = append(out, rowAt(sel, i))
			}
		}
	}
	return out
}

// cmpDense compares two densely materialized live-row value slices.
func cmpDense[T ordered](xs, ys []T, op cmpOp, sel []int32, out []int32) []int32 {
	switch op {
	case opLt:
		for i := range xs {
			if xs[i] < ys[i] {
				out = append(out, rowAt(sel, i))
			}
		}
	case opLe:
		for i := range xs {
			if xs[i] <= ys[i] {
				out = append(out, rowAt(sel, i))
			}
		}
	case opGt:
		for i := range xs {
			if xs[i] > ys[i] {
				out = append(out, rowAt(sel, i))
			}
		}
	case opGe:
		for i := range xs {
			if xs[i] >= ys[i] {
				out = append(out, rowAt(sel, i))
			}
		}
	case opEq:
		for i := range xs {
			if xs[i] == ys[i] {
				out = append(out, rowAt(sel, i))
			}
		}
	case opNe:
		for i := range xs {
			if xs[i] != ys[i] {
				out = append(out, rowAt(sel, i))
			}
		}
	}
	return out
}

// --- arithmetic kernels ---

type arithOp int

const (
	aAdd arithOp = iota
	aSub
	aMul
	aDiv
)

type number interface {
	~int64 | ~float64
}

// applyOp folds two literals: x op y. Div only ever reaches the float lane.
func applyOp[T number](op arithOp, x, y T) T {
	switch op {
	case aAdd:
		return x + y
	case aSub:
		return x - y
	case aMul:
		return x * y
	}
	return x / y
}

// applyConst folds a constant into out in place: out[i] = out[i] op k,
// or k op out[i] when rev (needed for non-commutative Sub/Div).
func applyConst[T number](out []T, k T, op arithOp, rev bool) {
	switch {
	case op == aAdd:
		for i := range out {
			out[i] += k
		}
	case op == aMul:
		for i := range out {
			out[i] *= k
		}
	case op == aSub && !rev:
		for i := range out {
			out[i] -= k
		}
	case op == aSub && rev:
		for i := range out {
			out[i] = k - out[i]
		}
	case op == aDiv && !rev:
		for i := range out {
			out[i] /= k
		}
	default: // aDiv reversed
		for i := range out {
			out[i] = k / out[i]
		}
	}
}

// applyCol folds a physical column into out in place.
func applyCol[T number](out []T, vals []T, sel []int32, op arithOp, rev bool) {
	v := func(i int) T {
		if sel != nil {
			return vals[sel[i]]
		}
		return vals[i]
	}
	switch {
	case op == aAdd:
		for i := range out {
			out[i] += v(i)
		}
	case op == aMul:
		for i := range out {
			out[i] *= v(i)
		}
	case op == aSub && !rev:
		for i := range out {
			out[i] -= v(i)
		}
	case op == aSub && rev:
		for i := range out {
			out[i] = v(i) - out[i]
		}
	case op == aDiv && !rev:
		for i := range out {
			out[i] /= v(i)
		}
	default:
		for i := range out {
			out[i] = v(i) / out[i]
		}
	}
}

// combine computes out[i] = xs[i] op out[i] in place.
func combine[T number](xs, out []T, op arithOp) {
	switch op {
	case aAdd:
		for i := range out {
			out[i] = xs[i] + out[i]
		}
	case aSub:
		for i := range out {
			out[i] = xs[i] - out[i]
		}
	case aMul:
		for i := range out {
			out[i] = xs[i] * out[i]
		}
	case aDiv:
		for i := range out {
			out[i] = xs[i] / out[i]
		}
	}
}

// arithKernel composes the kernel of a op b in one lane. Const and
// bare-column operands fold into the other side's output buffer; only the
// general case pays a scratch materialization.
func arithKernel[T number](ln lane[T], a, b Expr, op arithOp) kernel[T] {
	switch {
	case b.isConst():
		k := ln.konst(b)
		return func(ba *data.Batch, sel []int32, out []T) {
			ln.eval(a, ba, sel, out)
			applyConst(out, k, op, false)
		}
	case a.isConst():
		k := ln.konst(a)
		return func(ba *data.Batch, sel []int32, out []T) {
			ln.eval(b, ba, sel, out)
			applyConst(out, k, op, true)
		}
	case b.isColRef():
		ci := b.colIdx()
		return func(ba *data.Batch, sel []int32, out []T) {
			ln.eval(a, ba, sel, out)
			applyCol(out, ln.col(&ba.Cols[ci]), sel, op, false)
		}
	case a.isColRef():
		ci := a.colIdx()
		return func(ba *data.Batch, sel []int32, out []T) {
			ln.eval(b, ba, sel, out)
			applyCol(out, ln.col(&ba.Cols[ci]), sel, op, true)
		}
	default:
		return func(ba *data.Batch, sel []int32, out []T) {
			xp := ln.pool.get(len(out))
			ln.eval(a, ba, sel, *xp)
			ln.eval(b, ba, sel, out)
			combine(*xp, out, op)
			ln.pool.put(xp)
		}
	}
}

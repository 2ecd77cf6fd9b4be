package exec

// Vectorized batch kernels over compiled expressions. The scalar closures
// in expr.go remain the semantic ground truth (and the fallback for
// arbitrary expressions); the constructors additionally attach
// column-at-a-time kernels for the shapes that dominate TPC-H filters and
// projections — bare column refs, constants, comparisons against
// constants or other columns, arithmetic, and fused AND-chains — so the
// hot loops run one function call per *batch* instead of one per row.
// This is the stdlib-Go stand-in for the per-query vectorized code the
// paper's engine generates (see DESIGN.md §5.9).

import (
	"sync"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
)

// batchEncoder materializes rows of a batch through an Umami buffer: key
// hashes and tuple sizes are computed column-at-a-time, the rows are encoded
// column-at-a-time into one scratch buffer, and each tuple is then copied
// into its AllocTuple slot. The copy is what makes this safe: AllocTuple may
// trigger adaptive partitioning or spilling, which invalidates previously
// returned slots, so tuples must be complete bytes by the time the next
// allocation happens.
type batchEncoder struct {
	hs    []uint64
	seq   []int32 // 0, 1, 2, …: see rows
	sizes []int
	dsts  [][]byte
	enc   []byte
}

// encodeRows is how many rows are encoded at a time: the scratch stays in
// cache, and a wide 64 Ki-row batch does not cost megabytes of it.
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
		total := 0
		for _, s := range be.sizes {
			total += s
		}
		if cap(be.enc) < total {
			be.enc = make([]byte, total)
		}
		be.enc = be.enc[:total]
		be.dsts = sized(be.dsts, n)
		off := 0
		for i, s := range be.sizes {
			be.dsts[i] = be.enc[off : off+s : off+s]
			off += s
		}
		rc.EncodeAll(be.dsts, b, sel[:n])
		for i, h := range hs[:n] {
			copy(buf.AllocTuple(be.sizes[i], h), be.dsts[i])
		}
		sel, hs = sel[n:], hs[n:]
	}
}

// vectorizeEnabled gates every vectorized fast path; when false all
// evaluation goes through the per-row scalar closures. Flipped only by
// SetVectorized (equivalence tests); not safe to toggle mid-query.
var vectorizeEnabled = true

// SetVectorized toggles the vectorized kernels engine-wide. Tests force
// the scalar fallback to prove the two paths produce byte-identical
// results; production code never calls this.
func SetVectorized(on bool) { vectorizeEnabled = on }

// EvalBool evaluates a boolean expression over the live rows of b,
// appending the physical indices of passing rows to out (returned) — the
// selection-vector form of a filter. sel selects the rows to test (nil =
// all physical rows). out must not alias sel unless writing in ascending
// positions ≤ the read position is acceptable (it is for in-place
// refinement: survivors are a subset written monotonically).
func (e Expr) EvalBool(b *data.Batch, sel []int32, out []int32) []int32 {
	if vectorizeEnabled && e.vecSel != nil {
		return e.vecSel(b, sel, out)
	}
	f := e.I
	if sel == nil {
		n := b.Len()
		for r := 0; r < n; r++ {
			if f(b, r) != 0 {
				out = append(out, int32(r))
			}
		}
		return out
	}
	for _, r := range sel {
		if f(b, int(r)) != 0 {
			out = append(out, r)
		}
	}
	return out
}

// refineSel filters sel in place by e, returning the surviving prefix.
func (e Expr) refineSel(b *data.Batch, sel []int32) []int32 {
	return e.EvalBool(b, sel, sel[:0])
}

// EvalI evaluates an integer-typed expression for every live row of b
// into out, which must be sized to the live row count.
func (e Expr) EvalI(b *data.Batch, sel []int32, out []int64) {
	if vectorizeEnabled && e.vecI != nil {
		e.vecI(b, sel, out)
		return
	}
	f := e.I
	if sel == nil {
		for r := range out {
			out[r] = f(b, r)
		}
		return
	}
	for i, r := range sel {
		out[i] = f(b, int(r))
	}
}

// EvalF evaluates a float expression for every live row of b into out.
func (e Expr) EvalF(b *data.Batch, sel []int32, out []float64) {
	if vectorizeEnabled && e.vecF != nil {
		e.vecF(b, sel, out)
		return
	}
	f := e.F
	if sel == nil {
		for r := range out {
			out[r] = f(b, r)
		}
		return
	}
	for i, r := range sel {
		out[i] = f(b, int(r))
	}
}

// EvalS evaluates a string expression for every live row of b into out.
func (e Expr) EvalS(b *data.Batch, sel []int32, out []string) {
	if vectorizeEnabled && e.vecS != nil {
		e.vecS(b, sel, out)
		return
	}
	f := e.S
	if sel == nil {
		for r := range out {
			out[r] = f(b, r)
		}
		return
	}
	for i, r := range sel {
		out[i] = f(b, int(r))
	}
}

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

// --- scratch pools for composed kernels ---

var (
	i64Pool = sync.Pool{New: func() interface{} { return new([]int64) }}
	f64Pool = sync.Pool{New: func() interface{} { return new([]float64) }}
)

func getI64(n int) *[]int64 {
	p := i64Pool.Get().(*[]int64)
	if cap(*p) < n {
		*p = make([]int64, n)
	}
	*p = (*p)[:n]
	return p
}

func getF64(n int) *[]float64 {
	p := f64Pool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
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
	phys := func(i int) int32 {
		if sel != nil {
			return sel[i]
		}
		return int32(i)
	}
	switch op {
	case opLt:
		for i := range xs {
			if xs[i] < k {
				out = append(out, phys(i))
			}
		}
	case opLe:
		for i := range xs {
			if xs[i] <= k {
				out = append(out, phys(i))
			}
		}
	case opGt:
		for i := range xs {
			if xs[i] > k {
				out = append(out, phys(i))
			}
		}
	case opGe:
		for i := range xs {
			if xs[i] >= k {
				out = append(out, phys(i))
			}
		}
	case opEq:
		for i := range xs {
			if xs[i] == k {
				out = append(out, phys(i))
			}
		}
	case opNe:
		for i := range xs {
			if xs[i] != k {
				out = append(out, phys(i))
			}
		}
	}
	return out
}

// cmpDense compares two densely materialized live-row value slices.
func cmpDense[T ordered](xs, ys []T, op cmpOp, sel []int32, out []int32) []int32 {
	phys := func(i int) int32 {
		if sel != nil {
			return sel[i]
		}
		return int32(i)
	}
	switch op {
	case opLt:
		for i := range xs {
			if xs[i] < ys[i] {
				out = append(out, phys(i))
			}
		}
	case opLe:
		for i := range xs {
			if xs[i] <= ys[i] {
				out = append(out, phys(i))
			}
		}
	case opGt:
		for i := range xs {
			if xs[i] > ys[i] {
				out = append(out, phys(i))
			}
		}
	case opGe:
		for i := range xs {
			if xs[i] >= ys[i] {
				out = append(out, phys(i))
			}
		}
	case opEq:
		for i := range xs {
			if xs[i] == ys[i] {
				out = append(out, phys(i))
			}
		}
	case opNe:
		for i := range xs {
			if xs[i] != ys[i] {
				out = append(out, phys(i))
			}
		}
	}
	return out
}

func liveRows(b *data.Batch, sel []int32) int {
	if sel != nil {
		return len(sel)
	}
	return b.Len()
}

// attachCmpKernel builds a vecSel fast path for a compiled comparison,
// choosing, in order of preference: direct col⊗const and col⊗col kernels,
// then materialize-and-compare over the operands' vectorized evaluators,
// else nothing (scalar fallback).
func attachCmpKernel(e *Expr, op cmpOp, a, b Expr) {
	switch {
	case a.Type == data.String || b.Type == data.String:
		switch {
		case a.isColRef() && b.isConst():
			ci, k := a.colIdx(), b.cS
			e.vecSel = func(ba *data.Batch, sel []int32, out []int32) []int32 {
				return cmpColConstSel(ba.Cols[ci].S, k, op, ba.Len(), sel, out)
			}
		case a.isConst() && b.isColRef():
			ci, k, rop := b.colIdx(), a.cS, revOp(op)
			e.vecSel = func(ba *data.Batch, sel []int32, out []int32) []int32 {
				return cmpColConstSel(ba.Cols[ci].S, k, rop, ba.Len(), sel, out)
			}
		case a.isColRef() && b.isColRef():
			ca, cb := a.colIdx(), b.colIdx()
			e.vecSel = func(ba *data.Batch, sel []int32, out []int32) []int32 {
				return cmpColColSel(ba.Cols[ca].S, ba.Cols[cb].S, op, ba.Len(), sel, out)
			}
		}
	case a.Type != data.Float64 && b.Type != data.Float64:
		// Integer-kind comparison (int64, date, bool).
		switch {
		case a.isColRef() && b.isConst():
			ci, k := a.colIdx(), b.cI
			e.vecSel = func(ba *data.Batch, sel []int32, out []int32) []int32 {
				return cmpColConstSel(ba.Cols[ci].I, k, op, ba.Len(), sel, out)
			}
		case a.isConst() && b.isColRef():
			ci, k, rop := b.colIdx(), a.cI, revOp(op)
			e.vecSel = func(ba *data.Batch, sel []int32, out []int32) []int32 {
				return cmpColConstSel(ba.Cols[ci].I, k, rop, ba.Len(), sel, out)
			}
		case a.isColRef() && b.isColRef():
			ca, cb := a.colIdx(), b.colIdx()
			e.vecSel = func(ba *data.Batch, sel []int32, out []int32) []int32 {
				return cmpColColSel(ba.Cols[ca].I, ba.Cols[cb].I, op, ba.Len(), sel, out)
			}
		case a.vecI != nil && b.isConst():
			av, k := a.vecI, b.cI
			e.vecSel = func(ba *data.Batch, sel []int32, out []int32) []int32 {
				xp := getI64(liveRows(ba, sel))
				av(ba, sel, *xp)
				out = cmpDenseConst(*xp, k, op, sel, out)
				i64Pool.Put(xp)
				return out
			}
		case a.vecI != nil && b.vecI != nil:
			av, bv := a.vecI, b.vecI
			e.vecSel = func(ba *data.Batch, sel []int32, out []int32) []int32 {
				n := liveRows(ba, sel)
				xp, yp := getI64(n), getI64(n)
				av(ba, sel, *xp)
				bv(ba, sel, *yp)
				out = cmpDense(*xp, *yp, op, sel, out)
				i64Pool.Put(xp)
				i64Pool.Put(yp)
				return out
			}
		}
	default:
		// Float comparison with int→float promotion.
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af.isColRef() && bf.isConst():
			ci, k := af.colIdx(), bf.cF
			e.vecSel = func(ba *data.Batch, sel []int32, out []int32) []int32 {
				return cmpColConstSel(ba.Cols[ci].F, k, op, ba.Len(), sel, out)
			}
		case af.isConst() && bf.isColRef():
			ci, k, rop := bf.colIdx(), af.cF, revOp(op)
			e.vecSel = func(ba *data.Batch, sel []int32, out []int32) []int32 {
				return cmpColConstSel(ba.Cols[ci].F, k, rop, ba.Len(), sel, out)
			}
		case af.isColRef() && bf.isColRef():
			ca, cb := af.colIdx(), bf.colIdx()
			e.vecSel = func(ba *data.Batch, sel []int32, out []int32) []int32 {
				return cmpColColSel(ba.Cols[ca].F, ba.Cols[cb].F, op, ba.Len(), sel, out)
			}
		case af.vecF != nil && bf.isConst():
			av, k := af.vecF, bf.cF
			e.vecSel = func(ba *data.Batch, sel []int32, out []int32) []int32 {
				xp := getF64(liveRows(ba, sel))
				av(ba, sel, *xp)
				out = cmpDenseConst(*xp, k, op, sel, out)
				f64Pool.Put(xp)
				return out
			}
		case af.vecF != nil && bf.vecF != nil:
			av, bv := af.vecF, bf.vecF
			e.vecSel = func(ba *data.Batch, sel []int32, out []int32) []int32 {
				n := liveRows(ba, sel)
				xp, yp := getF64(n), getF64(n)
				av(ba, sel, *xp)
				bv(ba, sel, *yp)
				out = cmpDense(*xp, *yp, op, sel, out)
				f64Pool.Put(xp)
				f64Pool.Put(yp)
				return out
			}
		}
	}
}

// --- arithmetic kernels ---

type arithOp int

const (
	aAdd arithOp = iota
	aSub
	aMul
	aDiv
)

// applyConstF folds a constant into out in place: out[i] = out[i] op k,
// or k op out[i] when rev (needed for non-commutative Sub/Div).
func applyConstF(out []float64, k float64, op arithOp, rev bool) {
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

func applyConstI(out []int64, k int64, op arithOp, rev bool) {
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
	default: // aSub reversed; aDiv never reaches the int kernel
		for i := range out {
			out[i] = k - out[i]
		}
	}
}

// applyColF folds a physical float column into out in place.
func applyColF(out []float64, vals []float64, sel []int32, op arithOp, rev bool) {
	v := func(i int) float64 {
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

func applyColI(out []int64, vals []int64, sel []int32, op arithOp, rev bool) {
	v := func(i int) int64 {
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
	default:
		for i := range out {
			out[i] = v(i) - out[i]
		}
	}
}

// combineF computes out[i] = xs[i] op out[i] in place.
func combineF(xs, out []float64, op arithOp) {
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

func combineI(xs, out []int64, op arithOp) {
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
	}
}

// binaryFKernel composes a vectorized float kernel for a op b, or nil
// when either side lacks one. Const and bare-column operands fold into
// the other side's output buffer; only the general case pays a scratch
// materialization.
func binaryFKernel(a, b Expr, op arithOp) func(*data.Batch, []int32, []float64) {
	if a.vecF == nil || b.vecF == nil {
		return nil
	}
	switch {
	case b.isConst():
		av, k := a.vecF, b.cF
		return func(ba *data.Batch, sel []int32, out []float64) {
			av(ba, sel, out)
			applyConstF(out, k, op, false)
		}
	case a.isConst():
		bv, k := b.vecF, a.cF
		return func(ba *data.Batch, sel []int32, out []float64) {
			bv(ba, sel, out)
			applyConstF(out, k, op, true)
		}
	case b.isColRef():
		av, ci := a.vecF, b.colIdx()
		return func(ba *data.Batch, sel []int32, out []float64) {
			av(ba, sel, out)
			applyColF(out, ba.Cols[ci].F, sel, op, false)
		}
	case a.isColRef():
		bv, ci := b.vecF, a.colIdx()
		return func(ba *data.Batch, sel []int32, out []float64) {
			bv(ba, sel, out)
			applyColF(out, ba.Cols[ci].F, sel, op, true)
		}
	default:
		av, bv := a.vecF, b.vecF
		return func(ba *data.Batch, sel []int32, out []float64) {
			xp := getF64(len(out))
			av(ba, sel, *xp)
			bv(ba, sel, out)
			combineF(*xp, out, op)
			f64Pool.Put(xp)
		}
	}
}

// binaryIKernel is binaryFKernel for the integer lane (Add/Sub/Mul only).
func binaryIKernel(a, b Expr, op arithOp) func(*data.Batch, []int32, []int64) {
	if a.vecI == nil || b.vecI == nil {
		return nil
	}
	switch {
	case b.isConst():
		av, k := a.vecI, b.cI
		return func(ba *data.Batch, sel []int32, out []int64) {
			av(ba, sel, out)
			applyConstI(out, k, op, false)
		}
	case a.isConst():
		bv, k := b.vecI, a.cI
		return func(ba *data.Batch, sel []int32, out []int64) {
			bv(ba, sel, out)
			applyConstI(out, k, op, true)
		}
	case b.isColRef():
		av, ci := a.vecI, b.colIdx()
		return func(ba *data.Batch, sel []int32, out []int64) {
			av(ba, sel, out)
			applyColI(out, ba.Cols[ci].I, sel, op, false)
		}
	case a.isColRef():
		bv, ci := b.vecI, a.colIdx()
		return func(ba *data.Batch, sel []int32, out []int64) {
			bv(ba, sel, out)
			applyColI(out, ba.Cols[ci].I, sel, op, true)
		}
	default:
		av, bv := a.vecI, b.vecI
		return func(ba *data.Batch, sel []int32, out []int64) {
			xp := getI64(len(out))
			av(ba, sel, *xp)
			bv(ba, sel, out)
			combineI(*xp, out, op)
			i64Pool.Put(xp)
		}
	}
}

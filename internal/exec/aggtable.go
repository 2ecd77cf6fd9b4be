package exec

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"

	"github.com/spilly-db/spilly/internal/data"
)

// groupTable is the phase-2 aggregation hash table: one per shard of the
// "global synchronized hash table" of §4.6, and one per worker for spilled
// partitions. It is probed with the key hash, never with a re-serialized key;
// the hash is recomputed from the tuple's bytes (RowCodec.HashTuple), once
// per tuple, because a materialized tuple does not keep the hash Umami
// partitioned it by.
//
// Slots are open-addressed with linear probing. A slot packs the low 32
// hash bits (the bits that also pick the slot, so the table grows by
// re-inserting slots without touching a key) above the group number + 1;
// 0 is empty. A group is a number: its key is one RowCodec.AppendKey copy in
// keys, and its aggregate state lives at fixed strides in ints/floats/seen.
// No array holds a pointer, so the collector has nothing to trace however
// many groups there are.
//
// Tuples merge a run at a time (mergeRun): a shard's tuples of one page, a
// read-back page, a chunk of overflow tuples.
//
// The zero value plus a and hint is an empty table; arrays are allocated on
// the first insert, so shards that receive no tuple cost nothing.
type groupTable struct {
	mu sync.Mutex // global shards only; partition tables have one owner

	a    *Agg
	hint int // expected groups (phase 1's sketch), sizes the first allocation

	slots  []uint64
	n      int       // groups
	keys   []byte    // group g's key at g*a.keyW, or at keyOff[g]
	keyOff []int     // only when a string key makes the width vary
	ints   []int64   // a.ni per group: counts, integer and string Min/Max
	floats []float64 // a.nf per group: sums, float Min/Max
	seen   []bool    // a.nm per group: Min/Max has a value
	strs   []byte    // string Min/Max values, u32 length-prefixed; ints holds the offset
}

const groupTableMinSlots = 16

// mergeRunMax bounds the runs a partition's overflow tuples are merged in, so
// that the staging arrays stay the size of a page's.
const mergeRunMax = 2048

// reset empties the table for the next partition, keeping its arrays.
func (t *groupTable) reset() {
	clear(t.slots)
	t.n = 0
	t.keys = t.keys[:0]
	t.keyOff = t.keyOff[:0]
	t.ints = t.ints[:0]
	t.floats = t.floats[:0]
	t.seen = t.seen[:0]
	t.strs = t.strs[:0]
}

func (t *groupTable) key(g int) []byte {
	if w := t.a.keyW; w > 0 {
		return t.keys[g*w:]
	}
	return t.keys[t.keyOff[g]:]
}

// mergeStage is one worker's staging arrays for mergeRun, each as long as the
// longest run it has merged.
type mergeStage struct {
	tuples  [][]byte      // a run, gathered by the caller …
	hashes  []uint64      // … and its key hashes
	first   []uint64      // the slot each tuple's probe starts at
	gs      []int32       // each tuple's group
	cols    []data.Column // the run's state fields, decoded by fold
	seq     []int32       // 0, 1, 2, …: the rows of cols
	touched byte
}

// mergeTuples hashes the key of every tuple and merges them as one run.
func (t *groupTable) mergeTuples(tuples [][]byte, st *mergeStage) {
	hs := sized(st.hashes, len(tuples))
	for j, tup := range tuples {
		hs[j] = t.a.rc.HashTuple(tup, t.a.keyFields)
	}
	st.hashes = hs
	t.mergeRun(tuples, hs, st)
}

// mergeRun folds a run of partial tuples, whose key hashes are hs, into their
// groups, opening the groups the table has not seen. It works in stages, each
// a loop of its own over the run, so that the cache misses of different
// tuples overlap instead of forming one dependent chain per tuple:
//
//  1. load the slot every tuple's probe starts at;
//  2. touch the key of every group a first slot's tag points to;
//  3. resolve each tuple to its group, or to a miss;
//  4. open the misses in run order, probing again, so that a key repeated
//     within the run opens one group;
//  5. fold each aggregate column over the resolved groups.
//
// Each group folds its tuples in run order.
func (t *groupTable) mergeRun(tuples [][]byte, hs []uint64, st *mergeStage) {
	if t.slots == nil {
		t.grow()
	}
	n := len(tuples)
	hs = hs[:n]
	mask := uint64(len(t.slots) - 1)
	first := sized(st.first, n)
	for j, h := range hs {
		first[j] = t.slots[h&mask]
	}
	touched := st.touched
	for j, s := range first {
		if s != 0 && s>>32 == hs[j]&0xffffffff {
			touched |= t.key(int(uint32(s)) - 1)[0]
		}
	}
	st.touched = touched
	gs := sized(st.gs, n)
	for j, h := range hs {
		gs[j] = -1
		if first[j] != 0 {
			gs[j], _ = t.probe(tuples[j], h)
		}
	}
	for j, g := range gs {
		if g < 0 {
			gs[j] = t.open(tuples[j], hs[j])
		}
	}
	st.first, st.gs = first, gs
	t.fold(tuples, gs, st)
}

// probe returns the group of tuple, whose key hash is h, or -1 and the empty
// slot the probe ended at.
func (t *groupTable) probe(tuple []byte, h uint64) (int32, uint64) {
	mask := uint64(len(t.slots) - 1)
	tag := h << 32
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1, i
		}
		if s&^0xffffffff == tag && t.sameKey(int(uint32(s))-1, tuple) {
			return int32(uint32(s)) - 1, i
		}
	}
}

// open returns the group of tuple, opening it unless an earlier tuple of the
// run did.
func (t *groupTable) open(tuple []byte, h uint64) int32 {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	g, i := t.probe(tuple, h)
	if g >= 0 {
		return g
	}
	a := t.a
	g = int32(t.n)
	t.n++
	t.slots[i] = h<<32 | uint64(g+1)
	if a.keyW == 0 {
		t.keyOff = append(t.keyOff, len(t.keys))
	}
	t.keys = a.rc.AppendKey(t.keys, tuple, len(a.keyFields))
	t.ints = append(t.ints, make([]int64, a.ni)...)
	t.floats = append(t.floats, make([]float64, a.nf)...)
	t.seen = append(t.seen, make([]bool, a.nm)...)
	return g
}

// sameKey reports whether tuple has group g's key; NULL matches NULL. A
// fixed-width key compares its 8-byte slots, so floats compare by their bits
// (NaN is one key, +0 and −0 are two), and the null bitmap under the key
// fields' bits only: the bitmap also carries the Min/Max state bits.
func (t *groupTable) sameKey(g int, tuple []byte) bool {
	a := t.a
	key := t.key(g)
	if a.keyW == 0 {
		return a.rc.KeyEqual(key, tuple, a.keyFields)
	}
	for i, m := range a.keyNulls {
		if (key[i]^tuple[i])&m != 0 {
			return false
		}
	}
	for _, f := range a.keyFields {
		off := a.rc.FieldOffset(f)
		if binary.LittleEndian.Uint64(key[off:]) != binary.LittleEndian.Uint64(tuple[off:]) && !a.rc.IsNull(tuple, f) {
			return false
		}
	}
	return true
}

// grow doubles the slot array (or allocates everything, the first time) and
// re-inserts the slots by the hash bits they carry.
func (t *groupTable) grow() {
	if t.slots == nil {
		groups := t.hint
		size := groupTableMinSlots
		for size*3 < (groups+1)*4 {
			size *= 2
		}
		a := t.a
		t.slots = make([]uint64, size)
		t.keys = make([]byte, 0, groups*a.keyW)
		t.ints = make([]int64, 0, groups*a.ni)
		t.floats = make([]float64, 0, groups*a.nf)
		t.seen = make([]bool, 0, groups*a.nm)
		return
	}
	if len(t.slots) >= 1<<31 {
		panic("exec: aggregation group table is full")
	}
	old := t.slots
	t.slots = make([]uint64, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := (s >> 32) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// fold is mergeRun's last stage: the run's state fields are decoded a column
// at a time and folded into groups gs. A string Min/Max is compared where it
// lies in the tuple and copied into strs only when it improves.
func (t *groupTable) fold(tuples [][]byte, gs []int32, st *mergeStage) {
	a := t.a
	rc := a.rc
	n := len(tuples)
	st.cols = sized(st.cols, a.partial.Len())
	for f := len(a.keyFields); f < len(st.cols); f++ {
		c := &st.cols[f]
		c.Type = a.partial.Cols[f].Type
		off := rc.FieldOffset(f)
		switch c.Type {
		case data.String:
			continue
		case data.Float64:
			c.F = sized(c.F, n)
			for j, tup := range tuples {
				c.F[j] = math.Float64frombits(binary.LittleEndian.Uint64(tup[off:]))
			}
		default:
			c.I = sized(c.I, n)
			for j, tup := range tuples {
				c.I[j] = int64(binary.LittleEndian.Uint64(tup[off:]))
			}
		}
		if a.minMax[f] {
			c.Null = sized(c.Null, n)
			by, bit := f/8, byte(1)<<(f%8)
			for j, tup := range tuples {
				c.Null[j] = tup[by]&bit != 0
			}
		}
	}
	st.seq = iota32(st.seq, n)
	a.foldStates(aggStates{ints: t.ints, floats: t.floats, seen: t.seen, ni: a.ni, nf: a.nf, nm: a.nm, span: 1}, st.cols, st.seq, gs)
	for i := range a.states {
		sd := &a.states[i]
		if !sd.strMinMax() {
			continue
		}
		f := sd.fields[0]
		for j, tup := range tuples {
			if rc.IsNull(tup, f) {
				continue
			}
			g := int(gs[j])
			x, v, seen := rc.StrBytes(tup, f), &t.ints[g*a.ni+sd.at[0]], &t.seen[g*a.nm+sd.mm]
			better := !*seen
			if !better {
				c := bytes.Compare(x, t.str(*v))
				better = (sd.fn == Min && c < 0) || (sd.fn == Max && c > 0)
			}
			if better {
				*v = int64(len(t.strs))
				t.strs = binary.LittleEndian.AppendUint32(t.strs, uint32(len(x)))
				t.strs = append(t.strs, x...)
			}
			*seen = true
		}
	}
}

// str returns the string Min/Max value stored at off.
func (t *groupTable) str(off int64) []byte {
	n := int64(binary.LittleEndian.Uint32(t.strs[off:]))
	return t.strs[off+4 : off+4+n]
}

// aggStates locates the aggregate states of a table's groups: group g's
// state slot k (stateDef.at) is ints[g*ni+k*span] or floats[g*nf+k*span],
// and its Min/Max flag m (stateDef.mm) is seen[g*nm+m*span]. Phase 2 keeps a
// group's states together (span 1); phase 1 keeps a slot's states together
// (strides 1, span the table's capacity), so a flush hands each slot to the
// encoder as a column.
type aggStates struct {
	ints       []int64
	floats     []float64
	seen       []bool
	ni, nf, nm int
	span       int
}

// foldStates folds state row rows[i] of cols, columns laid out in the partial
// schema, into group gs[i] of st, for every aggregate but a string Min/Max,
// whose values each phase keeps its own way. Counts and sums add; Min/Max
// skip NULL, which is a NULL input in phase 1 and a partial that saw no value
// in phase 2. Each column is one typed loop.
func (a *Agg) foldStates(st aggStates, cols []data.Column, rows, gs []int32) {
	for i := range a.states {
		sd := &a.states[i]
		if sd.fn != Min && sd.fn != Max {
			for k, f := range sd.fields {
				at := sd.at[k] * st.span
				if c := &cols[f]; c.Type == data.Float64 {
					foldAdd(st.floats[at:], st.nf, c.F, rows, gs)
				} else {
					foldAdd(st.ints[at:], st.ni, c.I, rows, gs)
				}
			}
			continue
		}
		c := &cols[sd.fields[0]]
		at, seen := sd.at[0]*st.span, st.seen[sd.mm*st.span:]
		switch {
		case c.Type == data.String:
		case c.Type == data.Float64 && sd.fn == Min:
			foldMin(st.floats[at:], st.nf, seen, st.nm, c.F, c.Null, rows, gs)
		case c.Type == data.Float64:
			foldMax(st.floats[at:], st.nf, seen, st.nm, c.F, c.Null, rows, gs)
		case sd.fn == Min:
			foldMin(st.ints[at:], st.ni, seen, st.nm, c.I, c.Null, rows, gs)
		default:
			foldMax(st.ints[at:], st.ni, seen, st.nm, c.I, c.Null, rows, gs)
		}
	}
}

// foldAdd adds vals[rows[i]] to acc[gs[i]*stride], in order.
func foldAdd[T int64 | float64](acc []T, stride int, vals []T, rows, gs []int32) {
	rows = rows[:len(gs)]
	for i, g := range gs {
		acc[int(g)*stride] += vals[rows[i]]
	}
}

// foldMin lowers acc[gs[i]*stride] to vals[rows[i]] where that is less or the
// group has no value yet (seen[gs[i]*seenStride]), skipping the rows null
// marks.
func foldMin[T int64 | float64 | string](acc []T, stride int, seen []bool, seenStride int, vals []T, null []bool, rows, gs []int32) {
	rows = rows[:len(gs)]
	for i, g := range gs {
		r := rows[i]
		if null != nil && null[r] {
			continue
		}
		x, v, s := vals[r], &acc[int(g)*stride], &seen[int(g)*seenStride]
		if !*s || x < *v {
			*v = x
		}
		*s = true
	}
}

// foldMax is foldMin for the greatest value.
func foldMax[T int64 | float64 | string](acc []T, stride int, seen []bool, seenStride int, vals []T, null []bool, rows, gs []int32) {
	rows = rows[:len(gs)]
	for i, g := range gs {
		r := rows[i]
		if null != nil && null[r] {
			continue
		}
		x, v, s := vals[r], &acc[int(g)*stride], &seen[int(g)*seenStride]
		if !*s || x > *v {
			*v = x
		}
		*s = true
	}
}

// emit writes groups [lo, hi) into b (which must be empty), one output
// column at a time. Strings are copied into arena: the table's own bytes are
// reused for the next partition, and emitted strings outlive it.
func (t *groupTable) emit(b *data.Batch, lo, hi int, arena *data.ByteArena) {
	a := t.a
	rc := a.rc
	n := hi - lo
	nk := len(a.keyFields)
	for f := 0; f < nk; f++ {
		c := &b.Cols[f]
		switch c.Type {
		case data.Float64:
			c.F = sized(c.F, n)
			for j := range c.F {
				c.F[j] = rc.Float(t.key(lo+j), f)
			}
		case data.String:
			c.S = sized(c.S, n)
			for j := range c.S {
				c.S[j] = arena.InternBytes(rc.StrBytes(t.key(lo+j), f))
			}
		default:
			c.I = sized(c.I, n)
			for j := range c.I {
				c.I[j] = rc.Int(t.key(lo+j), f)
			}
		}
		for j := 0; j < n; j++ {
			if rc.IsNull(t.key(lo+j), f) {
				if c.Null == nil {
					c.Null = make([]bool, n)
				}
				c.Null[j] = true
			}
		}
	}
	for i := range a.states {
		sd := &a.states[i]
		c := &b.Cols[nk+i]
		// Group lo+j's state for this aggregate: ints[io+j*ni] or
		// floats[fo+j*nf], whichever array its field lives in.
		ni, nf := a.ni, a.nf
		io, fo := lo*ni+sd.at[0], lo*nf+sd.at[0]
		switch {
		case sd.fn == Avg:
			c.F = sized(c.F, n)
			io = lo*ni + sd.at[1]
			for j := range c.F {
				c.F[j] = 0
				if cnt := t.ints[io+j*ni]; cnt != 0 {
					c.F[j] = t.floats[fo+j*nf] / float64(cnt)
				}
			}
		// Counts, sums and Min/Max go out as stored; a Min/Max that saw no
		// value is the zero value.
		case c.Type == data.Float64:
			c.F = sized(c.F, n)
			for j := range c.F {
				c.F[j] = t.floats[fo+j*nf]
			}
		case c.Type == data.String:
			c.S = sized(c.S, n)
			for j := range c.S {
				c.S[j] = ""
				if t.seen[(lo+j)*a.nm+sd.mm] {
					c.S[j] = arena.InternBytes(t.str(t.ints[io+j*ni]))
				}
			}
		default:
			c.I = sized(c.I, n)
			for j := range c.I {
				c.I[j] = t.ints[io+j*ni]
			}
		}
	}
	b.SetLen(n)
}

// sized returns s with length n, reusing its array when that is large
// enough. Unlike grow it never over-allocates: an emitted batch must stay
// within the capacity BatchPool retains.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// iota32 returns s extended, where it is shorter, to 0, 1, …, n-1, and cut
// to n.
func iota32(s []int32, n int) []int32 {
	for len(s) < n {
		s = append(s, int32(len(s)))
	}
	return s[:n]
}

package exec

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
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
// read-back page, a chunk of overflow tuples. A run opens its new groups in
// bulk: it numbers them in run order first, then copies their keys and
// extends every state array once, by the number it opened.
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
	at      []uint64      // the slot each tuple's probe starts at; for a miss, the empty slot it ended at
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
//  3. resolve each tuple to its group, or to a miss and the empty slot its
//     probe ended at;
//  4. open the misses in run order (openMisses): each takes the slot it
//     recorded, walking on only past a slot an earlier miss of the run took,
//     so that a key repeated within the run opens one group; then the key
//     and state arrays are extended once for all the groups opened;
//  5. fold each aggregate column over the resolved groups.
//
// New groups are numbered in run order, and each group folds its tuples in
// run order.
func (t *groupTable) mergeRun(tuples [][]byte, hs []uint64, st *mergeStage) {
	if t.slots == nil {
		t.alloc()
	}
	n := len(tuples)
	hs = hs[:n]
	mask := uint64(len(t.slots) - 1)
	at := sized(st.at, n)
	for j, h := range hs {
		at[j] = t.slots[h&mask]
	}
	touched := st.touched
	for j, s := range at {
		if s != 0 && s>>32 == hs[j]&0xffffffff {
			touched |= t.key(int(uint32(s)) - 1)[0]
		}
	}
	st.touched = touched
	gs := sized(st.gs, n)
	misses := 0
	for j, h := range hs {
		gs[j] = -1
		if at[j] == 0 {
			at[j] = h & mask
		} else {
			gs[j], at[j] = t.probe(tuples[j], h)
		}
		if gs[j] < 0 {
			misses++
		}
	}
	st.at, st.gs = at, gs
	if misses > 0 {
		t.openMisses(tuples, hs, gs, at, misses)
	}
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
		if s&^0xffffffff == tag && t.sameKey(t.key(int(uint32(s))-1), tuple) {
			return int32(uint32(s)) - 1, i
		}
	}
}

// openMisses is mergeRun's stage 4: it resolves the run's misses (gs[j] < 0,
// whose probes ended at the empty slot at[j]) to groups, in run order. A miss
// takes its slot and opens a group unless an earlier miss of the run took
// the slot first; then it walks on, and finds that miss's group if it
// repeats its key. The slot array grows at most once, when the first group
// that needs it opens, for every miss still to come: those probe the new
// array from where their hashes start. The new groups' keys are copied, and
// their states zeroed, once they are all numbered, so every array is
// extended once by exactly the groups the run opened.
//
// The run's k-th new group records the tuple that opened it in at[k]: by
// then miss k has taken its slot, and the k-th group opens at a tuple j ≥ k,
// so the entries it overwrites are ones no miss reads again.
func (t *groupTable) openMisses(tuples [][]byte, hs []uint64, gs []int32, at []uint64, misses int) {
	a := t.a
	n0 := t.n
	mask := uint64(len(t.slots) - 1)
	for j, g := range gs {
		if g >= 0 {
			continue
		}
		tuple, h := tuples[j], hs[j]
		i := at[j]
		for {
			s := t.slots[i]
			if s == 0 && (t.n+1)*4 > len(t.slots)*3 {
				t.grow(t.n + misses)
				mask = uint64(len(t.slots) - 1)
				for k := j; k < len(gs); k++ {
					if gs[k] < 0 {
						at[k] = hs[k] & mask
					}
				}
				i = at[j]
				continue
			}
			if s == 0 {
				g = int32(t.n)
				at[t.n-n0] = uint64(j)
				t.n++
				t.slots[i] = h<<32 | uint64(g+1)
				break
			}
			// Only a group this run opened can have the key: the probe pass
			// found it in none of the others. Its key is still in the tuple
			// that opened it.
			other := int(uint32(s)) - 1
			if other >= n0 && s>>32 == h&0xffffffff && t.sameKey(tuples[at[other-n0]], tuple) {
				g = int32(other)
				break
			}
			i = (i + 1) & mask
		}
		misses--
		gs[j] = g
	}
	opened := at[:t.n-n0]
	if w := a.keyW; w > 0 {
		keys := extend(t.keys, len(opened)*w)
		dst := keys[n0*w:]
		for k, j := range opened {
			copy(dst[k*w:(k+1)*w], tuples[j])
		}
		t.keys = keys
	} else {
		t.keyOff = slices.Grow(t.keyOff, len(opened))
		for _, j := range opened {
			t.keyOff = append(t.keyOff, len(t.keys))
			t.keys = a.rc.AppendKey(t.keys, tuples[j], len(a.keyFields))
		}
	}
	t.ints = extend(t.ints, len(opened)*a.ni)
	t.floats = extend(t.floats, len(opened)*a.nf)
	t.seen = extend(t.seen, len(opened)*a.nm)
}

// sameKey reports whether tuple has the key key, a group's key copy or the
// tuple that opened it; NULL matches NULL. A fixed-width key compares its
// 8-byte slots, so floats compare by their bits (NaN is one key, +0 and −0
// are two), and the null bitmap under the key fields' bits only: the bitmap
// also carries the Min/Max state bits.
func (t *groupTable) sameKey(key, tuple []byte) bool {
	a := t.a
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

// alloc allocates the table for its hint: a slot array that holds hint
// groups, and key and state arrays of that capacity (a string key's fixed
// part only: its bodies vary).
func (t *groupTable) alloc() {
	a, groups := t.a, t.hint
	t.slots = make([]uint64, slotsFor(groupTableMinSlots, groups+1))
	if a.keyW > 0 {
		t.keys = make([]byte, 0, groups*a.keyW)
	} else {
		t.keys = make([]byte, 0, groups*a.rc.FieldOffset(len(a.keyFields)))
		t.keyOff = make([]int, 0, groups)
	}
	t.ints = make([]int64, 0, groups*a.ni)
	t.floats = make([]float64, 0, groups*a.nf)
	t.seen = make([]bool, 0, groups*a.nm)
}

// slotsFor returns the least power-of-two multiple of size that holds groups
// at three quarters full.
func slotsFor(size, groups int) int {
	for size*3 < groups*4 {
		size *= 2
	}
	return size
}

// grow enlarges the slot array, in one step, to hold groups and re-inserts
// the slots by the hash bits they carry.
func (t *groupTable) grow(groups int) {
	size := slotsFor(len(t.slots), groups)
	if size > 1<<31 {
		panic("exec: aggregation group table is full")
	}
	old := t.slots
	t.slots = make([]uint64, size)
	mask := uint64(size - 1)
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
		// null ORs the groups' null bytes holding the field's bit, so that a
		// column without a NULL key takes no second pass for its marks.
		by, bit := f/8, byte(1)<<(f%8)
		var null byte
		switch c.Type {
		case data.Float64:
			c.F = sized(c.F, n)
			for j := range c.F {
				key := t.key(lo + j)
				c.F[j] = rc.Float(key, f)
				null |= key[by]
			}
		case data.String:
			c.S = sized(c.S, n)
			for j := range c.S {
				key := t.key(lo + j)
				c.S[j] = arena.InternBytes(rc.StrBytes(key, f))
				null |= key[by]
			}
		default:
			c.I = sized(c.I, n)
			for j := range c.I {
				key := t.key(lo + j)
				c.I[j] = rc.Int(key, f)
				null |= key[by]
			}
		}
		if null&bit != 0 {
			c.Null = make([]bool, n)
			for j := range c.Null {
				c.Null[j] = rc.IsNull(t.key(lo+j), f)
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

// extend returns s lengthened by n zero entries, its array grown the way
// append grows one.
func extend[T any](s []T, n int) []T {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
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

package exec

import (
	"bytes"
	"encoding/binary"
	"sync"

	"github.com/spilly-db/spilly/internal/data"
)

// groupTable is the phase-2 aggregation hash table: one per shard of the
// "global synchronized hash table" of §4.6, and one per worker for spilled
// partitions. It is probed with the hash the materialized tuple already
// carries, never with a re-serialized key.
//
// Slots are open-addressed with linear probing. A slot packs the low 32
// hash bits (the bits that also pick the slot, so the table grows by
// re-inserting slots without touching a key) above the group number + 1;
// 0 is empty. A group is a number: its key is one RowCodec.AppendKey copy in
// keys, compared against incoming tuples with RowCodec.KeyEqual, and its
// aggregate state lives at fixed strides in ints/floats/seen. No array holds
// a pointer, so the collector has nothing to trace however many groups
// there are.
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

// merge folds one partial tuple with key hash h into its group, opening the
// group if the table has not seen the key.
func (t *groupTable) merge(tuple []byte, h uint64) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	a := t.a
	mask := uint64(len(t.slots) - 1)
	tag := h << 32
	i := h & mask
	for {
		s := t.slots[i]
		if s == 0 {
			break
		}
		if s&^0xffffffff == tag {
			g := int(uint32(s)) - 1
			if a.rc.KeyEqual(t.key(g), tuple, a.keyFields) {
				t.fold(g, tuple)
				return
			}
		}
		i = (i + 1) & mask
	}
	g := t.n
	t.n++
	t.slots[i] = tag | uint64(g+1)
	if a.keyW == 0 {
		t.keyOff = append(t.keyOff, len(t.keys))
	}
	t.keys = a.rc.AppendKey(t.keys, tuple, len(a.keyFields))
	t.ints = append(t.ints, make([]int64, a.ni)...)
	t.floats = append(t.floats, make([]float64, a.nf)...)
	t.seen = append(t.seen, make([]bool, a.nm)...)
	t.fold(g, tuple)
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
	if len(t.slots) >= 1<<32 {
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

// fold merges the partial aggregate state of tuple into group g.
func (t *groupTable) fold(g int, tuple []byte) {
	a := t.a
	rc := a.rc
	ints := t.ints[g*a.ni : (g+1)*a.ni]
	floats := t.floats[g*a.nf : (g+1)*a.nf]
	for i := range a.states {
		sd := &a.states[i]
		f0 := sd.fields[0]
		switch sd.fn {
		case CountStar, Count:
			ints[sd.at[0]] += rc.Int(tuple, f0)
		case Sum:
			floats[sd.at[0]] += rc.Float(tuple, f0)
		case Avg:
			floats[sd.at[0]] += rc.Float(tuple, f0)
			ints[sd.at[1]] += rc.Int(tuple, sd.fields[1])
		case Min, Max:
			// The unseen state of a partial Min/Max travels as NULL.
			if rc.IsNull(tuple, f0) {
				break
			}
			seen := &t.seen[g*a.nm+sd.mm]
			switch sd.typ {
			case data.Float64:
				x, v := rc.Float(tuple, f0), &floats[sd.at[0]]
				if !*seen || (sd.fn == Min && x < *v) || (sd.fn == Max && x > *v) {
					*v = x
				}
			case data.String:
				// Compare through a view; copy only when the value improves.
				x, v := rc.StrBytes(tuple, f0), &ints[sd.at[0]]
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
			default:
				x, v := rc.Int(tuple, f0), &ints[sd.at[0]]
				if !*seen || (sd.fn == Min && x < *v) || (sd.fn == Max && x > *v) {
					*v = x
				}
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

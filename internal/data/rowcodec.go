package data

import (
	"bytes"
	"encoding/binary"
	"math"

	"github.com/spilly-db/spilly/internal/xhash"
)

// RowCodec serializes rows into the row-wise tuple format operators
// materialize through Umami. The layout gives O(1) field access:
//
//	[null bitmap, 1 bit per field, byte-rounded]
//	[8-byte slot per field: value, or (u32 offset | u32 len) for strings]
//	[string data]
//
// Offsets are relative to the row start, so a tuple is self-contained and
// can be copied, spilled, and read back byte-identically.
type RowCodec struct {
	types     []Type
	strFields []int // indices of String fields, in order
	nullBytes int
	fixedEnd  int // nullBytes + 8*len(types)
}

// NewRowCodec returns a codec for the given column types.
func NewRowCodec(types []Type) *RowCodec {
	nb := (len(types) + 7) / 8
	rc := &RowCodec{types: types, nullBytes: nb, fixedEnd: nb + 8*len(types)}
	for i, t := range types {
		if t == String {
			rc.strFields = append(rc.strFields, i)
		}
	}
	return rc
}

// Fields returns the number of fields per row.
func (rc *RowCodec) Fields() int { return len(rc.types) }

// Types returns the field types.
func (rc *RowCodec) Types() []Type { return rc.types }

// FixedSize returns the encoded tuple size when the codec has no string
// fields, in which case every tuple is the same width.
func (rc *RowCodec) FixedSize() (int, bool) {
	return rc.fixedEnd, len(rc.strFields) == 0
}

// SizeAll appends the encoded size of every live row of b to out
// (returned). For all-fixed schemas this is a constant fill; otherwise the
// per-row base cost is filled once and only string columns are walked.
func (rc *RowCodec) SizeAll(b *Batch, sel []int32, out []int) []int {
	n := b.n
	if sel != nil {
		n = len(sel)
	}
	base := len(out)
	for i := 0; i < n; i++ {
		out = append(out, rc.fixedEnd)
	}
	sizes := out[base:]
	for _, f := range rc.strFields {
		vals := b.Cols[f].S
		if sel == nil {
			for i := 0; i < n; i++ {
				sizes[i] += len(vals[i])
			}
		} else {
			for i, r := range sel {
				sizes[i] += len(vals[r])
			}
		}
	}
	return out
}

// EncodeAll encodes the live rows of b into dsts, one pre-allocated
// destination per live row (each exactly the corresponding SizeAll size,
// e.g. reserved in place on Umami pages). It is column-at-a-time: per
// column the type dispatch happens once and a tight loop writes all rows.
// A string body starts where the previous string field's ends, read back
// from that field's slot, or at the end of the fixed part.
func (rc *RowCodec) EncodeAll(dsts [][]byte, b *Batch, sel []int32) {
	n := b.n
	if sel != nil {
		n = len(sel)
	}
	if len(dsts) != n {
		panic("data: EncodeAll destination count mismatch")
	}
	for _, dst := range dsts {
		for j := 0; j < rc.nullBytes; j++ {
			dst[j] = 0
		}
	}
	prevStr := -1 // slot offset of the previous string field
	for f, t := range rc.types {
		c := &b.Cols[f]
		slotOff := rc.nullBytes + 8*f
		switch t {
		case Float64:
			vals := c.F
			for i, dst := range dsts {
				r := i
				if sel != nil {
					r = int(sel[i])
				}
				binary.LittleEndian.PutUint64(dst[slotOff:], math.Float64bits(vals[r]))
			}
		case String:
			vals := c.S
			for i, dst := range dsts {
				r := i
				if sel != nil {
					r = int(sel[i])
				}
				off := uint32(rc.fixedEnd)
				if prevStr >= 0 {
					off = binary.LittleEndian.Uint32(dst[prevStr:]) + binary.LittleEndian.Uint32(dst[prevStr+4:])
				}
				s := vals[r]
				binary.LittleEndian.PutUint32(dst[slotOff:], off)
				binary.LittleEndian.PutUint32(dst[slotOff+4:], uint32(len(s)))
				copy(dst[off:], s)
			}
			prevStr = slotOff
		default:
			vals := c.I
			for i, dst := range dsts {
				r := i
				if sel != nil {
					r = int(sel[i])
				}
				binary.LittleEndian.PutUint64(dst[slotOff:], uint64(vals[r]))
			}
		}
		if c.Null != nil {
			for i, dst := range dsts {
				r := i
				if sel != nil {
					r = int(sel[i])
				}
				if c.Null[r] {
					dst[f/8] |= 1 << uint(f%8)
				}
			}
		}
	}
}

// IsNull reports whether field f of the tuple is NULL.
func (rc *RowCodec) IsNull(tuple []byte, f int) bool {
	return tuple[f/8]&(1<<uint(f%8)) != 0
}

// Int returns integer/date/bool field f.
func (rc *RowCodec) Int(tuple []byte, f int) int64 {
	return int64(binary.LittleEndian.Uint64(tuple[rc.nullBytes+8*f:]))
}

// Float returns float field f.
func (rc *RowCodec) Float(tuple []byte, f int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(tuple[rc.nullBytes+8*f:]))
}

// Str returns string field f as an owned copy (one allocation per call).
// Hot paths that only hash or compare the field use StrBytes instead.
func (rc *RowCodec) Str(tuple []byte, f int) string {
	return string(rc.StrBytes(tuple, f))
}

// StrBytes returns string field f as a view into the tuple — no copy, no
// allocation. The view is only valid while the tuple's backing page is
// alive; callers that store the value copy it first (Str or
// ByteArena.InternBytes).
func (rc *RowCodec) StrBytes(tuple []byte, f int) []byte {
	slot := tuple[rc.nullBytes+8*f:]
	off := binary.LittleEndian.Uint32(slot)
	n := binary.LittleEndian.Uint32(slot[4:])
	return tuple[off : off+n]
}

// AppendTo decodes the whole tuple onto the end of b, whose schema must
// match the codec's types. String fields are copied individually; the
// spill-restore paths use AppendToArena instead.
func (rc *RowCodec) AppendTo(b *Batch, tuple []byte) {
	rc.AppendToArena(b, tuple, nil)
}

// AppendToArena is AppendTo with string fields interned through the arena
// (when non-nil): the output owns its bytes without a per-field allocation,
// so the tuple's backing page can be recycled once the batch is emitted.
func (rc *RowCodec) AppendToArena(b *Batch, tuple []byte, arena *ByteArena) {
	for i, t := range rc.types {
		c := &b.Cols[i]
		null := rc.IsNull(tuple, i)
		switch t {
		case Float64:
			c.F = append(c.F, rc.Float(tuple, i))
		case String:
			if arena != nil {
				c.S = append(c.S, arena.InternBytes(rc.StrBytes(tuple, i)))
			} else {
				c.S = append(c.S, rc.Str(tuple, i))
			}
		default:
			c.I = append(c.I, rc.Int(tuple, i))
		}
		if null {
			if c.Null == nil {
				c.Null = make([]bool, b.n)
			}
		}
		if c.Null != nil {
			c.Null = append(c.Null, null)
		}
	}
	b.n++
}

// FieldOffset returns where field f's 8-byte slot starts in a tuple.
func (rc *RowCodec) FieldOffset(f int) int { return rc.nullBytes + 8*f }

// SetNull marks field f of an encoded tuple NULL.
func (rc *RowCodec) SetNull(tuple []byte, f int) { tuple[f/8] |= 1 << uint(f%8) }

// DecodeFields decodes fields 0..len(cols)-1 of every tuple into cols (whose
// types are the codec's), overwriting them: the column-at-a-time counterpart
// of AppendToArena. Each field is one typed loop over the tuples, and one
// pass over the null bitmaps decides per field whether its column gets a
// null mask at all. Strings are interned through arena, so the columns own
// their bytes and the tuples' pages can be recycled.
func (rc *RowCodec) DecodeFields(cols []Column, tuples [][]byte, arena *ByteArena) {
	n := len(tuples)
	var buf [16]byte
	anyNull := buf[:]
	if rc.nullBytes > len(buf) {
		anyNull = make([]byte, rc.nullBytes)
	}
	for _, t := range tuples {
		for i := 0; i < rc.nullBytes; i++ {
			anyNull[i] |= t[i]
		}
	}
	for f := range cols {
		c := &cols[f]
		slot := rc.FieldOffset(f)
		switch rc.types[f] {
		case Float64:
			c.F = resize(c.F, n)
			for j, t := range tuples {
				c.F[j] = math.Float64frombits(binary.LittleEndian.Uint64(t[slot:]))
			}
		case String:
			c.S = resize(c.S, n)
			for j, t := range tuples {
				off := binary.LittleEndian.Uint32(t[slot:])
				ln := binary.LittleEndian.Uint32(t[slot+4:])
				c.S[j] = arena.InternBytes(t[off : off+ln])
			}
		default:
			c.I = resize(c.I, n)
			for j, t := range tuples {
				c.I[j] = int64(binary.LittleEndian.Uint64(t[slot:]))
			}
		}
		c.Null = nil
		if bit := byte(1) << uint(f%8); anyNull[f/8]&bit != 0 {
			c.Null = make([]bool, n)
			for j, t := range tuples {
				c.Null[j] = t[f/8]&bit != 0
			}
		}
	}
}

// resize returns s with length n, reusing its array when that is large
// enough and never allocating more than n.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// HashRow hashes the given key columns of row r (for hash tables and Umami
// partitioning). NULL fields hash to a fixed tag so NULL == NULL groups
// together in aggregations.
func HashRow(b *Batch, keyCols []int, r int) uint64 {
	h := uint64(hashSeed)
	for _, col := range keyCols {
		c := &b.Cols[col]
		if c.Null != nil && c.Null[r] {
			h = xhash.Combine(h, hashNullTag)
			continue
		}
		switch c.Type {
		case Float64:
			h = xhash.Combine(h, xhash.U64(math.Float64bits(c.F[r]), hashField))
		case String:
			h = xhash.Combine(h, xhash.String(c.S[r], hashField))
		default:
			h = xhash.Combine(h, xhash.U64(uint64(c.I[r]), hashField))
		}
	}
	return h
}

// HashTuple hashes the given key fields of an encoded tuple, consistently
// with HashRow over the same values.
func (rc *RowCodec) HashTuple(tuple []byte, keyFields []int) uint64 {
	h := uint64(hashSeed)
	for _, f := range keyFields {
		if rc.IsNull(tuple, f) {
			h = xhash.Combine(h, hashNullTag)
			continue
		}
		switch rc.types[f] {
		case Float64:
			h = xhash.Combine(h, xhash.U64(binary.LittleEndian.Uint64(tuple[rc.nullBytes+8*f:]), hashField))
		case String:
			h = xhash.Combine(h, xhash.Bytes(rc.StrBytes(tuple, f), hashField))
		default:
			h = xhash.Combine(h, xhash.U64(uint64(rc.Int(tuple, f)), hashField))
		}
	}
	return h
}

// KeyEqual reports whether the key fields of two encoded tuples are equal
// (NULLs compare equal for grouping purposes).
func (rc *RowCodec) KeyEqual(a, b []byte, keyFields []int) bool {
	for _, f := range keyFields {
		an, bn := rc.IsNull(a, f), rc.IsNull(b, f)
		if an != bn {
			return false
		}
		if an {
			continue
		}
		switch rc.types[f] {
		case String:
			if !bytes.Equal(rc.StrBytes(a, f), rc.StrBytes(b, f)) {
				return false
			}
		default:
			if rc.Int(a, f) != rc.Int(b, f) {
				return false
			}
		}
	}
	return true
}

// AppendKey appends to dst a copy of tuple cut down to its first nk fields:
// the null bitmap, the nk value slots and the bodies of the string fields
// among them, their offsets rewritten to the copy. The codec reads fields
// below nk of the copy exactly as it reads them from the tuple (IsNull, Int,
// Float, StrBytes, KeyEqual), so a hash table keeps one compact key per
// group and still compares it against incoming tuples with KeyEqual.
func (rc *RowCodec) AppendKey(dst, tuple []byte, nk int) []byte {
	base := len(dst)
	dst = append(dst, tuple[:rc.nullBytes+8*nk]...)
	for _, f := range rc.strFields {
		if f >= nk {
			break
		}
		s := rc.StrBytes(tuple, f)
		binary.LittleEndian.PutUint32(dst[base+rc.nullBytes+8*f:], uint32(len(dst)-base))
		dst = append(dst, s...)
	}
	return dst
}

// KeyEqualRow compares the key fields of an encoded tuple with key columns
// of a batch row.
func (rc *RowCodec) KeyEqualRow(tuple []byte, keyFields []int, b *Batch, keyCols []int, r int) bool {
	for i, f := range keyFields {
		c := &b.Cols[keyCols[i]]
		tn := rc.IsNull(tuple, f)
		bn := c.Null != nil && c.Null[r]
		if tn != bn {
			return false
		}
		if tn {
			continue
		}
		switch rc.types[f] {
		case Float64:
			if rc.Float(tuple, f) != c.F[r] {
				return false
			}
		case String:
			// The []byte→string conversion inside a comparison does not
			// allocate.
			if string(rc.StrBytes(tuple, f)) != c.S[r] {
				return false
			}
		default:
			if rc.Int(tuple, f) != c.I[r] {
				return false
			}
		}
	}
	return true
}

// Package colstore implements the engine's columnar table storage (paper
// §5.2): tables are split into row groups (default 32k tuples, doubling as
// the morsel granularity), each column of a row group is encoded into one
// chunk, and every column's chunks are striped across all SSDs of the NVMe
// array.
//
// Chunk encoding is a lightweight columnar scheme in the spirit of
// BtrBlocks, which the paper applies off the shelf: per chunk, one pass over
// the values gathers the statistics (range, runs, distinct values, delta
// sizes) that give every scheme's encoded size, and the smallest is written,
// unless one that decodes several times faster is nearly as small — cheap,
// cache-friendly decoding with compression ratios comparable to
// general-purpose schemes on TPC-H data (the §5.2 table reports ~3×; see the
// sec52 experiment). Every scheme is bit-exact: a float comes back with the
// bit pattern it was stored with.
package colstore

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/data"
)

// ErrChunkCorrupt reports an undecodable chunk.
var ErrChunkCorrupt = errors.New("colstore: corrupt chunk")

// A chunk is a scheme byte, the value count as a uvarint, and the scheme's
// body. Two layouts recur in the bodies:
//
//	forBlock: 8-byte base, width byte w, the values minus base bit-packed
//	          at w bits (bitpack.go)
//	strBlock: uvarint total length, the bytes of all strings back to back,
//	          then each string's length as a uvarint
const (
	encRawInt   byte = iota // 8-byte little-endian values
	encRLEInt               // (varint value, uvarint run length) pairs
	encDeltaInt             // varint difference to the previous value, the first to 0
	encFORInt               // frame of reference: one forBlock

	encRawFloat  // 8-byte IEEE-754 bit patterns
	encRLEFloat  // (8-byte pattern, uvarint run length) pairs; runs compare bits, so -0 ends a run of +0
	encDictFloat // uvarint k <= floatDictMax, k patterns, codes bit-packed at widthOf(k-1)
	// encDecimalFloat stores v as the integer m nearest to v*10^e plus the
	// distance c in ulps from float64(m)/10^e to v (0 when v is the double
	// nearest a decimal, as parsed money is; ±1 for products of such).
	// Body: exponent byte e, forBlock of m, forBlock of c. Chosen only when
	// every |c| <= maxDecimalFix, and bits(float64(m)/10^e)+c is v exactly.
	encDecimalFloat

	encRawStr  // one strBlock
	encDictStr // uvarint k, strBlock of the k entries, codes bit-packed at widthOf(k-1)
	// encLZ4Str wraps a strBlock in the engine's LZ4 codec — the role FSST
	// plays for string columns in real BtrBlocks.
	encLZ4Str
)

const (
	// maxChunkRows bounds the value count of a chunk: raw, that many values
	// fill the largest extent an nvmesim.Loc can address (32 MiB), and the
	// decoder refuses a header that claims more before sizing anything.
	maxChunkRows = 1 << 22

	floatDictMax  = 256
	maxDecimalFix = 4
)

// decimalScales are the powers of ten encDecimalFloat tries, smallest first:
// whole numbers, dimes, cents.
var decimalScales = [...]float64{1, 10, 100}

// encoder holds the scratch one chunk's encoding needs, so a table's worth
// of chunks allocates it once.
type encoder struct {
	codes   []uint32 // dictionary code of each value
	fdict   floatDict
	sdict   map[string]uint32
	entries []string // sdict's keys in code order
	block   []byte   // strBlock before LZ4
	packed  []byte   // its LZ4 form
}

var encoders = sync.Pool{New: func() any { return &encoder{sdict: map[string]uint32{}} }}

// EncodeChunk appends the encoding of c's rows [lo, hi) to dst.
func EncodeChunk(dst []byte, c *data.Column, lo, hi int) []byte {
	if hi-lo > maxChunkRows {
		panic("colstore: chunk exceeds maxChunkRows")
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	switch c.Type {
	case data.Float64:
		return e.floats(dst, c.F[lo:hi])
	case data.String:
		return e.strings(dst, c.S[lo:hi])
	default:
		return e.ints(dst, c.I[lo:hi])
	}
}

func appendHeader(dst []byte, scheme byte, n int) []byte {
	return binary.AppendUvarint(append(dst, scheme), uint64(n))
}

func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// forLen is the size of a forBlock of n values w bits wide.
func forLen(n int, w uint) int { return 9 + packedLen(n, w) }

// appendFOR appends the forBlock of value(0..n-1), all within [lo, lo+2^w).
func appendFOR(dst []byte, n int, lo int64, w uint, value func(i int) int64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(lo))
	bw := newBitWriter(append(dst, byte(w)), n, w)
	for i := 0; i < n; i++ {
		bw.put(uint64(value(i))-uint64(lo), w)
	}
	return bw.finish()
}

// slowSchemeMargin is the share of the size a scheme that decodes value by
// value (RLE, delta-varint: 3-6 ns a value) must save over one that unpacks
// a word at a time (raw, frame of reference: under 2 ns) to be chosen: a
// quarter. Below that the bytes saved cost an SSD less time than the decoding
// costs the CPU.
const slowSchemeMargin = 4

// ints encodes an int64 chunk as raw, RLE, delta-varint or frame of
// reference; one pass gives all four sizes exactly.
func (e *encoder) ints(dst []byte, vals []int64) []byte {
	n := len(vals)
	scheme, size := encRawInt, 8*n
	var lo, hi int64
	if n > 0 {
		lo, hi = vals[0], vals[0]
		rle, delta, run, prev := 0, 0, 0, int64(0)
		for i, v := range vals {
			lo, hi = min(lo, v), max(hi, v)
			delta += varintLen(v - prev)
			if i > 0 && v != prev {
				rle += varintLen(prev) + uvarintLen(uint64(run))
				run = 0
			}
			run++
			prev = v
		}
		rle += varintLen(prev) + uvarintLen(uint64(run))
		if w := widthOf(uint64(hi) - uint64(lo)); w <= maxPackWidth && forLen(n, w) < size {
			scheme, size = encFORInt, forLen(n, w)
		}
		slow, slowSize := encRLEInt, rle
		if delta < rle {
			slow, slowSize = encDeltaInt, delta
		}
		if slowSize < size-size/slowSchemeMargin {
			scheme, size = slow, slowSize
		}
	}
	dst = slices.Grow(appendHeader(dst, scheme, n), size)
	switch scheme {
	case encRawInt:
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	case encRLEInt:
		for i := 0; i < n; {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			dst = binary.AppendVarint(dst, vals[i])
			dst = binary.AppendUvarint(dst, uint64(j-i))
			i = j
		}
	case encDeltaInt:
		prev := int64(0)
		for _, v := range vals {
			dst = binary.AppendVarint(dst, v-prev)
			prev = v
		}
	case encFORInt:
		dst = appendFOR(dst, n, lo, widthOf(uint64(hi)-uint64(lo)), func(i int) int64 { return vals[i] })
	}
	return dst
}

// floatDict maps up to floatDictMax bit patterns to codes in first-seen
// order: an open-addressed table sized to stay under half full.
type floatDict struct {
	slots [2 * floatDictMax]floatDictSlot
	keys  [floatDictMax]uint64
	n     int
}

type floatDictSlot struct {
	key  uint64
	code uint32 // code+1; 0 marks an empty slot
}

func (d *floatDict) reset() { d.slots, d.n = [len(d.slots)]floatDictSlot{}, 0 }

// code returns key's code, adding it while fewer than limit keys are held.
func (d *floatDict) code(key uint64, limit int) (uint32, bool) {
	for i := key * 0x9e3779b97f4a7c15 >> 55; ; i = (i + 1) % uint64(len(d.slots)) {
		s := &d.slots[i]
		switch {
		case s.code == 0:
			if d.n >= limit {
				return 0, false
			}
			s.key, s.code = key, uint32(d.n+1)
			d.keys[d.n] = key
			d.n++
			return s.code - 1, true
		case s.key == key:
			return s.code - 1, true
		}
	}
}

// decimalOf splits v into the integer nearest v*scale and the ulps from
// that integer over scale back to v; ok is false when v is not within
// maxDecimalFix ulps of such a quotient.
func decimalOf(v, scale float64) (m, fix int64, ok bool) {
	s := v * scale
	if !(math.Abs(s) < 1<<52) { // also NaN and ±Inf
		return 0, 0, false
	}
	m = int64(math.Floor(s + 0.5))
	fix = int64(math.Float64bits(v)) - int64(math.Float64bits(float64(m)/scale))
	return m, fix, -maxDecimalFix <= fix && fix <= maxDecimalFix
}

// decimalStats holds the ranges of a chunk's decimalOf parts at one scale.
type decimalStats struct {
	exp          byte
	mLo, mHi     int64
	fixLo, fixHi int64
}

func (s *decimalStats) widths() (m, fix uint) {
	return widthOf(uint64(s.mHi) - uint64(s.mLo)), widthOf(uint64(s.fixHi) - uint64(s.fixLo))
}

// decimalFit finds the smallest scale at which every value is a decimal; a
// scale is given up at its first value that is not.
func decimalFit(vals []float64) (st decimalStats, ok bool) {
scales:
	for e, scale := range decimalScales {
		st = decimalStats{exp: byte(e), mLo: math.MaxInt64, mHi: math.MinInt64, fixLo: maxDecimalFix, fixHi: -maxDecimalFix}
		for _, v := range vals {
			m, fix, ok := decimalOf(v, scale)
			if !ok {
				continue scales
			}
			st.mLo, st.mHi = min(st.mLo, m), max(st.mHi, m)
			st.fixLo, st.fixHi = min(st.fixLo, fix), max(st.fixHi, fix)
		}
		return st, true
	}
	return st, false
}

// floats encodes a float64 chunk. One pass counts runs and collects the
// dictionary; only a chunk too varied for one is tested as decimals.
func (e *encoder) floats(dst []byte, vals []float64) []byte {
	n := len(vals)
	scheme, size := encRawFloat, 8*n
	consider := func(s byte, sz int) {
		if sz < size {
			scheme, size = s, sz
		}
	}
	e.fdict.reset()
	e.codes = slices.Grow(e.codes[:0], n)[:n]
	dictLimit, runs, prev := min(floatDictMax, n/2), 0, uint64(0)
	for i, v := range vals {
		b := math.Float64bits(v)
		if i == 0 || b != prev {
			runs++
			prev = b
		}
		if dictLimit > 0 {
			var ok bool
			if e.codes[i], ok = e.fdict.code(b, dictLimit); !ok {
				dictLimit = 0
			}
		}
	}
	consider(encRLEFloat, runs*(8+uvarintLen(uint64(n)))) // upper bound
	var dec decimalStats
	if k := e.fdict.n; dictLimit > 0 {
		consider(encDictFloat, uvarintLen(uint64(k))+8*k+packedLen(n, widthOf(uint64(k-1))))
	} else if n > 0 {
		var ok bool
		if dec, ok = decimalFit(vals); ok {
			mw, fw := dec.widths()
			consider(encDecimalFloat, 1+forLen(n, mw)+forLen(n, fw))
		}
	}
	dst = slices.Grow(appendHeader(dst, scheme, n), size)
	switch scheme {
	case encRawFloat:
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	case encRLEFloat:
		for i := 0; i < n; {
			b := math.Float64bits(vals[i])
			j := i + 1
			for j < n && math.Float64bits(vals[j]) == b {
				j++
			}
			dst = binary.LittleEndian.AppendUint64(dst, b)
			dst = binary.AppendUvarint(dst, uint64(j-i))
			i = j
		}
	case encDictFloat:
		k := e.fdict.n
		dst = binary.AppendUvarint(dst, uint64(k))
		for _, key := range e.fdict.keys[:k] {
			dst = binary.LittleEndian.AppendUint64(dst, key)
		}
		dst = appendCodes(dst, e.codes, widthOf(uint64(k-1)))
	case encDecimalFloat:
		scale := decimalScales[dec.exp]
		mw, fw := dec.widths()
		dst = append(dst, dec.exp)
		dst = appendFOR(dst, n, dec.mLo, mw, func(i int) int64 { m, _, _ := decimalOf(vals[i], scale); return m })
		dst = appendFOR(dst, n, dec.fixLo, fw, func(i int) int64 { _, fix, _ := decimalOf(vals[i], scale); return fix })
	}
	return dst
}

func appendCodes(dst []byte, codes []uint32, w uint) []byte {
	bw := newBitWriter(dst, len(codes), w)
	for _, c := range codes {
		bw.put(uint64(c), w)
	}
	return bw.finish()
}

func appendStrBlock(dst []byte, vals []string) []byte {
	total := 0
	for _, v := range vals {
		total += len(v)
	}
	dst = slices.Grow(dst, total+2*len(vals)+binary.MaxVarintLen64)
	dst = binary.AppendUvarint(dst, uint64(total))
	for _, v := range vals {
		dst = append(dst, v...)
	}
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
	}
	return dst
}

// strings encodes a string chunk: a dictionary when at most half the values
// are distinct, else the plain block, LZ4-wrapped only when that halves it:
// LZ4 decodes at over 1 ns a byte where the plain block costs 0.2, so on
// text that shrinks by a third (phone numbers) it spends more CPU than the
// bytes it saves take an SSD to deliver.
func (e *encoder) strings(dst []byte, vals []string) []byte {
	n := len(vals)
	clear(e.sdict)
	e.entries = e.entries[:0]
	e.codes = slices.Grow(e.codes[:0], n)[:n]
	dict := n > 0
	for i, v := range vals {
		code, seen := e.sdict[v]
		if !seen {
			if len(e.entries) >= n/2 {
				dict = false
				break
			}
			code = uint32(len(e.entries))
			e.sdict[v] = code
			e.entries = append(e.entries, v)
		}
		e.codes[i] = code
	}
	if dict {
		k := len(e.entries)
		dst = binary.AppendUvarint(appendHeader(dst, encDictStr, n), uint64(k))
		dst = appendStrBlock(dst, e.entries)
		return appendCodes(dst, e.codes, widthOf(uint64(k-1)))
	}
	e.block = appendStrBlock(e.block[:0], vals)
	e.packed = codec.ByID(codec.LZ4Default).Compress(e.packed[:0], e.block)
	if len(e.packed) < len(e.block)/2 {
		return append(appendHeader(dst, encLZ4Str, n), e.packed...)
	}
	return append(appendHeader(dst, encRawStr, n), e.block...)
}

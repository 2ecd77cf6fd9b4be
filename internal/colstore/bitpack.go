package colstore

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// Bit-packed blocks hold n values of w bits each as one little-endian bit
// stream: value i occupies bits [i*w, (i+1)*w). Unpacking loads the eight
// bytes at a value's first byte and shifts, one word per value with no
// carried state, which works while w+7 <= 64; the encoders therefore pack
// widths up to maxPackWidth only and fall back to another scheme beyond it
// (a wider block would save under an eighth of the raw size anyway).
const (
	maxPackWidth = 56
	// packPad is the slack written after a block so the load for the last
	// value stays inside it.
	packPad = 8
)

// packedLen returns the byte length of a packed block of n w-bit values,
// slack included.
func packedLen(n int, w uint) int { return (n*int(w)+7)/8 + packPad }

// widthOf returns the bits needed to hold every value in [0, span].
func widthOf(span uint64) uint { return uint(bits.Len64(span)) }

// bitWriter appends w-bit values to a packed block.
type bitWriter struct {
	dst  []byte
	acc  uint64
	fill uint // bits of acc in use
}

// newBitWriter reserves room for n w-bit values after dst.
func newBitWriter(dst []byte, n int, w uint) bitWriter {
	return bitWriter{dst: slices.Grow(dst, packedLen(n, w))}
}

func (b *bitWriter) put(v uint64, w uint) {
	b.acc |= v << b.fill
	b.fill += w
	if b.fill >= 64 {
		b.dst = binary.LittleEndian.AppendUint64(b.dst, b.acc)
		b.fill -= 64
		b.acc = v >> (w - b.fill) // the bits of v that did not fit
	}
}

// finish flushes the partial word and writes the slack.
func (b *bitWriter) finish() []byte {
	for ; b.fill > 0; b.fill -= min(b.fill, 8) {
		b.dst = append(b.dst, byte(b.acc))
		b.acc >>= 8
	}
	return append(b.dst, make([]byte, packPad)...)
}

// unpackAt returns the value that starts at the given bit of a packed block.
func unpackAt(src []byte, bit uint, mask uint64) uint64 {
	return binary.LittleEndian.Uint64(src[bit>>3:]) >> (bit & 7) & mask
}

// unpackInts sets dst[i] to base plus the i-th w-bit value of src, which
// holds packedLen(len(dst), w) bytes.
func unpackInts(dst []int64, src []byte, w uint, base int64) {
	mask := uint64(1)<<w - 1
	for i := range dst {
		dst[i] = base + int64(unpackAt(src, uint(i)*w, mask))
	}
}

// unpackLookup sets dst[i] to dict[code i]; ok is false when a code is out
// of range.
func unpackLookup[T any](dst []T, src []byte, w uint, dict []T) (ok bool) {
	mask := uint64(1)<<w - 1
	for i := range dst {
		code := unpackAt(src, uint(i)*w, mask)
		if code >= uint64(len(dict)) {
			return false
		}
		dst[i] = dict[code]
	}
	return true
}

// unpackDecimals sets dst[i] to (base + the i-th value of src) / scale.
func unpackDecimals(dst []float64, src []byte, w uint, base int64, scale float64) {
	mask := uint64(1)<<w - 1
	for i := range dst {
		dst[i] = float64(base+int64(unpackAt(src, uint(i)*w, mask))) / scale
	}
}

// applyFixes moves dst[i] by base plus the i-th value of src, in ulps.
func applyFixes(dst []float64, src []byte, w uint, base int64) {
	mask := uint64(1)<<w - 1
	for i := range dst {
		dst[i] = math.Float64frombits(math.Float64bits(dst[i]) + uint64(base) + unpackAt(src, uint(i)*w, mask))
	}
}

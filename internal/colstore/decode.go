package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/data"
)

// decoder holds the scratch decoding needs beyond the target column, so a
// scan allocates it once. The zero value is ready; a decoder serves one
// goroutine.
type decoder struct {
	runs  []rleRun
	dict  []string // a string dictionary's entries
	block []byte   // the strBlock inside an LZ4 chunk
}

type rleRun struct {
	bits uint64 // the value: an int64, or a float64's bit pattern
	n    int
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// DecodeChunk decodes a chunk into the column (appending), returning the
// number of values. The chunk is untrusted: any input that EncodeChunk did
// not write returns ErrChunkCorrupt (or decodes to some values), and what it
// allocates is bounded by what len(chunk) bytes can encode — the target is
// sized only after every count in the header is checked against the body.
func DecodeChunk(c *data.Column, chunk []byte) (int, error) {
	d := decoders.Get().(*decoder)
	defer decoders.Put(d)
	return d.decode(c, chunk)
}

// extend returns s with room for n more values, and that tail to fill. The
// caller stores all back only once the tail is complete, so a failed decode
// leaves the column as it was.
func extend[T any](s []T, n int) (all, tail []T) {
	all = slices.Grow(s, n)[:len(s)+n]
	return all, all[len(s):]
}

// uvarint reads a uvarint at b[p:], one- and two-byte values without the
// call.
func uvarint(b []byte, p int) (v uint64, next int, ok bool) {
	if p+1 < len(b) {
		switch b0, b1 := b[p], b[p+1]; {
		case b0 < 0x80:
			return uint64(b0), p + 1, true
		case b1 < 0x80:
			return uint64(b0&0x7f) | uint64(b1)<<7, p + 2, true
		}
	}
	if p > len(b) {
		return 0, p, false
	}
	v, k := binary.Uvarint(b[p:])
	return v, p + k, k > 0
}

// parseFOR splits a forBlock of n values off the front of body.
func parseFOR(body []byte, n int) (base int64, w uint, packed, rest []byte, ok bool) {
	if len(body) < 9 {
		return 0, 0, nil, nil, false
	}
	base, w = int64(binary.LittleEndian.Uint64(body)), uint(body[8])
	body = body[9:]
	if w > maxPackWidth || (len(body)-packPad)*8 < n*int(w) {
		return 0, 0, nil, nil, false
	}
	size := packedLen(n, w)
	return base, w, body[:size], body[size:], true
}

// parseCodes checks that body is the packed codes of n values into a
// dictionary of k entries.
func parseCodes(body []byte, n int, k uint64) (w uint, ok bool) {
	w = widthOf(k - 1)
	return w, (len(body)-packPad)*8 >= n*int(w)
}

// parseRuns reads RLE pairs until they cover n values into d.runs; fixed
// selects 8-byte values over varints.
func (d *decoder) parseRuns(body []byte, n int, fixed bool) bool {
	d.runs = slices.Grow(d.runs[:0], min(n, len(body)/2)) // a pair is two bytes or more
	for got, p := 0, 0; got < n; {
		var bits uint64
		if fixed {
			if len(body)-p < 8 {
				return false
			}
			bits = binary.LittleEndian.Uint64(body[p:])
			p += 8
		} else {
			v, k := binary.Varint(body[p:])
			if k <= 0 {
				return false
			}
			bits = uint64(v)
			p += k
		}
		run, next, ok := uvarint(body, p)
		if !ok || run == 0 || run > uint64(n-got) {
			return false
		}
		p = next
		d.runs = append(d.runs, rleRun{bits, int(run)})
		got += int(run)
	}
	return true
}

// splitStrBlock returns a strBlock's string bytes and its length list.
func splitStrBlock(body []byte) (bytes, lens []byte, ok bool) {
	total, p, ok := uvarint(body, 0)
	if !ok || total > uint64(len(body)-p) {
		return nil, nil, false
	}
	return body[p : p+int(total)], body[p+int(total):], true
}

// cutStrings points out[i] at the i-th string of a strBlock whose bytes are
// backing, and returns what follows the length list.
func cutStrings(out []string, backing string, lens []byte) (rest []byte, ok bool) {
	off, p := 0, 0
	for i := range out {
		l, next, ok := uvarint(lens, p)
		if !ok || l > uint64(len(backing)-off) {
			return nil, false
		}
		out[i] = backing[off : off+int(l)]
		off, p = off+int(l), next
	}
	return lens[p:], off == len(backing)
}

func (d *decoder) decode(c *data.Column, chunk []byte) (int, error) {
	if len(chunk) < 2 {
		return 0, ErrChunkCorrupt
	}
	scheme := chunk[0]
	count, p, ok := uvarint(chunk, 1)
	if !ok || count > maxChunkRows {
		return 0, ErrChunkCorrupt
	}
	n, body := int(count), chunk[p:]
	switch scheme {
	case encRawInt:
		if n > len(body)/8 {
			return 0, ErrChunkCorrupt
		}
		all, out := extend(c.I, n)
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
		}
		c.I = all
	case encRLEInt:
		if !d.parseRuns(body, n, false) {
			return 0, ErrChunkCorrupt
		}
		all, out := extend(c.I, n)
		for _, r := range d.runs {
			fill(out[:r.n], int64(r.bits))
			out = out[r.n:]
		}
		c.I = all
	case encDeltaInt:
		if n > len(body) {
			return 0, ErrChunkCorrupt
		}
		all, out := extend(c.I, n)
		prev, p := int64(0), 0
		for i := range out {
			u, next, ok := uvarint(body, p)
			if !ok {
				return 0, ErrChunkCorrupt
			}
			prev += int64(u>>1) ^ -int64(u&1)
			out[i], p = prev, next
		}
		c.I = all
	case encFORInt:
		base, w, packed, _, ok := parseFOR(body, n)
		if !ok {
			return 0, ErrChunkCorrupt
		}
		all, out := extend(c.I, n)
		unpackInts(out, packed, w, base)
		c.I = all
	case encRawFloat:
		if n > len(body)/8 {
			return 0, ErrChunkCorrupt
		}
		all, out := extend(c.F, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
		c.F = all
	case encRLEFloat:
		if !d.parseRuns(body, n, true) {
			return 0, ErrChunkCorrupt
		}
		all, out := extend(c.F, n)
		for _, r := range d.runs {
			fill(out[:r.n], math.Float64frombits(r.bits))
			out = out[r.n:]
		}
		c.F = all
	case encDictFloat:
		k, p, ok := uvarint(body, 0)
		if !ok || k == 0 || k > floatDictMax || int(k) > (len(body)-p)/8 {
			return 0, ErrChunkCorrupt
		}
		var dict [floatDictMax]float64
		for i := range dict[:k] {
			dict[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[p+8*i:]))
		}
		codes := body[p+8*int(k):]
		w, ok := parseCodes(codes, n, k)
		if !ok {
			return 0, ErrChunkCorrupt
		}
		all, out := extend(c.F, n)
		if !unpackLookup(out, codes, w, dict[:k]) {
			return 0, ErrChunkCorrupt
		}
		c.F = all
	case encDecimalFloat:
		if len(body) < 1 || int(body[0]) >= len(decimalScales) {
			return 0, ErrChunkCorrupt
		}
		scale := decimalScales[body[0]]
		base, w, packed, rest, ok := parseFOR(body[1:], n)
		if !ok {
			return 0, ErrChunkCorrupt
		}
		fixBase, fixW, fixes, _, ok := parseFOR(rest, n)
		if !ok {
			return 0, ErrChunkCorrupt
		}
		all, out := extend(c.F, n)
		unpackDecimals(out, packed, w, base, scale)
		if fixW > 0 || fixBase != 0 {
			applyFixes(out, fixes, fixW, fixBase)
		}
		c.F = all
	case encRawStr, encLZ4Str:
		if scheme == encLZ4Str {
			var err error
			if d.block, err = codec.ByID(codec.LZ4Default).Decompress(d.block[:0], body); err != nil {
				return 0, fmt.Errorf("%w: %v", ErrChunkCorrupt, err)
			}
			body = d.block
		}
		bytes, lens, ok := splitStrBlock(body)
		if !ok || n > len(lens) {
			return 0, ErrChunkCorrupt
		}
		all, out := extend(c.S, n)
		// One backing string per chunk: the values are substrings of it.
		if _, ok := cutStrings(out, string(bytes), lens); !ok {
			return 0, ErrChunkCorrupt
		}
		c.S = all
	case encDictStr:
		k, p, ok := uvarint(body, 0)
		if !ok || k == 0 || k > uint64(len(body)) {
			return 0, ErrChunkCorrupt
		}
		bytes, lens, ok := splitStrBlock(body[p:])
		if !ok || k > uint64(len(lens)) {
			return 0, ErrChunkCorrupt
		}
		d.dict = slices.Grow(d.dict[:0], int(k))[:k]
		codes, ok := cutStrings(d.dict, string(bytes), lens)
		if !ok {
			return 0, ErrChunkCorrupt
		}
		w, ok := parseCodes(codes, n, k)
		if !ok {
			return 0, ErrChunkCorrupt
		}
		all, out := extend(c.S, n)
		if !unpackLookup(out, codes, w, d.dict) {
			return 0, ErrChunkCorrupt
		}
		c.S = all
	default:
		return 0, fmt.Errorf("%w: unknown scheme %d", ErrChunkCorrupt, scheme)
	}
	return n, nil
}

func fill[T any](dst []T, v T) {
	for i := range dst {
		dst[i] = v
	}
}

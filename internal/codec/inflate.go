package codec

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
)

// A whole-block raw DEFLATE (RFC 1951) decoder. The spill path always holds
// the whole compressed block and knows its decoded size, so the decoder works
// slice to slice: the output block is its window, a 64-bit bit buffer is
// refilled a word at a time, and Huffman codes decode through packed tables
// (a primary table indexed by the next bits, with subtables for longer
// codes).
//
// A table entry is a uint32: bits 0-3 hold the code length to consume,
// bits 4-7 the extra-bit count of a length or distance (or a subtable's index
// bits), bits 8-10 the entry's kind, bits 16-31 its value: a literal byte, a
// length or distance base, a code-length symbol, or a subtable's start.
const (
	kindLit  = 0 << 8 // literal byte
	kindLen  = 1 << 8 // match length (lit/len table) or distance (distance table)
	kindEnd  = 2 << 8 // end of block
	kindSub  = 3 << 8 // pointer to a subtable
	kindBad  = 4 << 8 // no code decodes to this bit pattern
	kindMask = 7 << 8

	litBits  = 10 // primary lit/len table index bits
	distBits = 8  // primary distance table index bits
	clenBits = 7  // code-length codes are at most 7 bits: no subtables

	// Table sizes: the primary table plus room for every subtable a complete
	// code can need. A subtable of 2^k entries holds at least k+1 codes, so
	// 288 lit/len codes make at most 48 subtables of 32 entries and 30
	// distance codes at most 3 of 128 plus one of 32 beyond the primary.
	litTableSize  = 1<<litBits + 48*32
	distTableSize = 1<<distBits + 3*128 + 32

	maxCodeLen = 15
	numLitLen  = 286 // lit/len symbols a stream may use; 286 and 287 are invalid
	numDist    = 30  // distance symbols a stream may use; 30 and 31 are invalid
	numCLen    = 19
)

// Length and distance symbols: base value and extra-bit count (RFC 1951 3.2.5).
var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}

	// clenOrder is the order a dynamic header stores code-length code lengths in.
	clenOrder = [numCLen]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// Table entries without their code length, by symbol.
var litSyms, distSyms, clenSyms = func() (lit [288]uint32, dist [32]uint32, clen [numCLen]uint32) {
	for s := range lit {
		switch {
		case s < 256:
			lit[s] = kindLit | uint32(s)<<16
		case s == 256:
			lit[s] = kindEnd
		case s < numLitLen:
			lit[s] = kindLen | uint32(lenExtra[s-257])<<4 | uint32(lenBase[s-257])<<16
		default:
			lit[s] = kindBad
		}
	}
	for s := range dist {
		if s < numDist {
			dist[s] = kindLen | uint32(distExtra[s])<<4 | uint32(distBase[s])<<16
		} else {
			dist[s] = kindBad
		}
	}
	for s := range clen {
		clen[s] = kindLit | uint32(s)<<16
	}
	return
}()

// The fixed Huffman code's tables (RFC 1951 3.2.6).
var fixedLit, fixedDist = func() (lit *[litTableSize]uint32, dist *[distTableSize]uint32) {
	var lens [288 + 32]uint8
	for s := range 288 {
		lens[s] = uint8(fixedLitLen(s))
	}
	for s := 288; s < len(lens); s++ {
		lens[s] = 5
	}
	var f inflater
	if !f.build(f.lit[:], lens[:288], litSyms[:], litBits) || !f.build(f.dist[:], lens[288:], distSyms[:], distBits) {
		panic("codec: fixed Huffman tables do not build")
	}
	return &f.lit, &f.dist
}()

// inflater is a pooled decoder's state: the tables of the current dynamic
// block and the scratch its header is read into.
type inflater struct {
	lit     [litTableSize]uint32
	dist    [distTableSize]uint32
	clen    [1 << clenBits]uint32
	lens    [numLitLen + numDist]uint8
	subBits [1 << litBits]uint8 // build's scratch: index bits of each prefix's subtable
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// maxInflateRatio bounds how far DEFLATE can expand its input (1032:1, a
// 258-byte match in two bits), so a corrupt stored length cannot make
// inflate allocate more than the stream could fill.
const maxInflateRatio = 1032

// inflate appends to dst the want bytes the raw DEFLATE stream src decodes
// to. It inflates straight into dst, grown once to fit; a stream that ends
// early, runs long, or fails to decode is ErrCorrupt.
func inflate(dst, src []byte, want uint64) ([]byte, error) {
	if want > uint64(len(src))*maxInflateRatio {
		return dst, ErrCorrupt
	}
	base := len(dst)
	out := slices.Grow(dst, int(want))[:base+int(want)]
	f := inflaters.Get().(*inflater)
	ok := f.decode(out, base, src)
	inflaters.Put(f)
	if !ok {
		return dst, ErrCorrupt
	}
	return out, nil
}

// bitReader reads src least significant bit first. Past the end of src it
// shifts in zero bytes, so a table lookup may peek beyond the last code;
// decode checks at the end that no padding was consumed.
type bitReader struct {
	src  []byte
	pos  int    // next byte of src to load; runs up to 8 past the end
	bits uint64 // unconsumed bits, next bit lowest
	n    uint   // valid bits in bits
}

// refill tops the buffer up to at least 56 bits. It reports false when that
// would need more than 8 bytes of padding: the stream has run out.
func (br *bitReader) refill() bool {
	if br.pos+8 <= len(br.src) {
		br.bits |= binary.LittleEndian.Uint64(br.src[br.pos:]) << br.n
		br.pos += int(63-br.n) >> 3
		br.n |= 56
		return true
	}
	for br.n < 56 {
		if br.pos < len(br.src) {
			br.bits |= uint64(br.src[br.pos]) << br.n
		} else if br.pos >= len(br.src)+8 {
			return false
		}
		br.pos++
		br.n += 8
	}
	return true
}

// take consumes and returns the next k ≤ 32 bits; the caller has refilled.
func (br *bitReader) take(k uint) uint32 {
	v := uint32(br.bits & (1<<k - 1))
	br.bits >>= k
	br.n -= k
	return v
}

// decode inflates src into out[op:], which it must fill exactly, and reports
// whether src was a well-formed stream that ends with its final block there.
func (f *inflater) decode(out []byte, op int, src []byte) bool {
	lo := op
	br := bitReader{src: src}
	for {
		if !br.refill() {
			return false
		}
		final := br.take(1)
		switch br.take(2) {
		case 0:
			// Stored: skip to the byte boundary; LEN and NLEN follow.
			br.take(br.n & 7)
			p := br.pos - int(br.n>>3) // first byte not yet consumed
			br.bits, br.n = 0, 0
			if p+4 > len(src) {
				return false
			}
			n := int(binary.LittleEndian.Uint16(src[p:]))
			if binary.LittleEndian.Uint16(src[p+2:]) != ^uint16(n) || n > len(src)-p-4 || n > len(out)-op {
				return false
			}
			op += copy(out[op:], src[p+4:p+4+n])
			br.pos = p + 4 + n
		case 1:
			var ok bool
			if op, ok = f.huffman(&br, out, lo, op, fixedLit, fixedDist); !ok {
				return false
			}
		case 2:
			if !f.readTables(&br) {
				return false
			}
			var ok bool
			if op, ok = f.huffman(&br, out, lo, op, &f.lit, &f.dist); !ok {
				return false
			}
		default:
			return false
		}
		if final == 1 {
			break
		}
	}
	return op == len(out) && br.pos*8-int(br.n) <= len(src)*8
}

// readTables reads a dynamic block's header and builds its lit/len and
// distance tables.
func (f *inflater) readTables(br *bitReader) bool {
	if !br.refill() {
		return false
	}
	nlit := 257 + int(br.take(5))
	ndist := 1 + int(br.take(5))
	nclen := 4 + int(br.take(4))
	if nlit > numLitLen || ndist > numDist {
		return false
	}
	var clens [numCLen]uint8
	for i := range nclen {
		if br.n < 3 && !br.refill() {
			return false
		}
		clens[clenOrder[i]] = uint8(br.take(3))
	}
	if !f.build(f.clen[:], clens[:], clenSyms[:], clenBits) {
		return false
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if br.n < clenBits+7 && !br.refill() {
			return false
		}
		e := f.clen[br.bits&(1<<clenBits-1)]
		if e&kindMask == kindBad {
			return false
		}
		br.take(uint(e & 15))
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep int
		var v uint8
		switch sym {
		case 16:
			if i == 0 {
				return false
			}
			rep, v = 3+int(br.take(2)), lens[i-1]
		case 17:
			rep = 3 + int(br.take(3))
		default:
			rep = 11 + int(br.take(7))
		}
		if rep > len(lens)-i {
			return false
		}
		for j := range rep {
			lens[i+j] = v
		}
		i += rep
	}
	if lens[256] == 0 {
		return false // no end-of-block code: the block could never end
	}
	return f.build(f.lit[:], lens[:nlit], litSyms[:], litBits) &&
		f.build(f.dist[:], lens[nlit:], distSyms[:], distBits)
}

// build fills tab with the canonical Huffman code the code lengths lens
// describe: a primary table of 2^primary entries, then the subtables of codes
// longer than primary bits. syms holds each symbol's entry without its code
// length. It reports false for an over-subscribed code, an incomplete one
// (except a single one-bit code, which zlib writes and accepts), and one that
// does not fit tab.
func (f *inflater) build(tab []uint32, lens []uint8, syms []uint32, primary uint) bool {
	var count [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	left, total, maxLen := 1, 0, 0
	for l := 1; l <= maxCodeLen; l++ {
		left = left<<1 - count[l]
		if left < 0 {
			return false
		}
		if count[l] > 0 {
			maxLen = l
		}
		total += count[l]
	}
	if left > 0 && total > 0 && !(total == 1 && maxLen == 1) {
		return false
	}
	// next[l] is the next canonical code of length l.
	var next [maxCodeLen + 1]uint32
	for l, code := 1, uint32(0); l <= maxCodeLen; l++ {
		code = (code + uint32(count[l-1])) << 1
		next[l] = code
	}
	psize := 1 << primary
	for i := range psize {
		tab[i] = kindBad
	}
	if maxLen > int(primary) {
		// Size each prefix's subtable for its longest code, then lay the
		// subtables out after the primary table.
		sub := f.subBits[:psize]
		clear(sub)
		codes := next
		for _, l := range lens {
			if l == 0 {
				continue
			}
			r := reverse(codes[l], l)
			codes[l]++
			if uint(l) > primary {
				p := r & uint32(psize-1)
				sub[p] = max(sub[p], l-uint8(primary))
			}
		}
		at := psize
		for p, sb := range sub {
			if sb == 0 {
				continue
			}
			size := 1 << sb
			if at+size > len(tab) || at >= 1<<16 {
				return false
			}
			tab[p] = kindSub | uint32(at)<<16 | uint32(sb)<<4
			for i := at; i < at+size; i++ {
				tab[i] = kindBad
			}
			at += size
		}
	}
	for s, l := range lens {
		if l == 0 {
			continue
		}
		r := reverse(next[l], l)
		next[l]++
		e := syms[s] | uint32(l)
		if uint(l) <= primary {
			for i := int(r); i < psize; i += 1 << l {
				tab[i] = e
			}
			continue
		}
		pe := tab[r&uint32(psize-1)]
		start, sb := int(pe>>16), uint(pe>>4&15)
		for i := int(r >> primary); i < 1<<sb; i += 1 << (uint(l) - primary) {
			tab[start+i] = e
		}
	}
	return true
}

// reverse returns the l low bits of code in reverse order: DEFLATE sends
// Huffman codes most significant bit first into an LSB-first stream.
func reverse(code uint32, l uint8) uint32 {
	return uint32(bits.Reverse16(uint16(code))) >> (16 - l)
}

// huffman decodes one Huffman-coded block into out[op:] with the given
// tables and returns the new output position; out[lo:] is the window.
func (f *inflater) huffman(br *bitReader, out []byte, lo, op int, lt *[litTableSize]uint32, dt *[distTableSize]uint32) (int, bool) {
	// The bit buffer lives in locals here; br is synced around the slow
	// refill and on return.
	src, pos, bb, n := br.src, br.pos, br.bits, br.n
	for {
		// One lit/len code, its extra bits, a distance code and its extra
		// bits take at most 15+5+15+13 = 48 bits.
		if n < 48 {
			if pos+8 <= len(src) {
				bb |= binary.LittleEndian.Uint64(src[pos:]) << n
				pos += int(63-n) >> 3
				n |= 56
			} else {
				br.pos, br.bits, br.n = pos, bb, n
				if !br.refill() {
					return op, false
				}
				pos, bb, n = br.pos, br.bits, br.n
			}
		}
		e := lt[bb&(1<<litBits-1)]
		if e&kindMask == kindSub {
			e = lt[int(e>>16)+int(bb>>litBits)&(1<<(e>>4&15)-1)]
		}
		bb >>= e & 15
		n -= uint(e & 15)
		switch e & kindMask {
		case kindLit:
			if op >= len(out) {
				return op, false
			}
			out[op] = byte(e >> 16)
			op++
			continue
		case kindLen:
		case kindEnd:
			br.pos, br.bits, br.n = pos, bb, n
			return op, true
		default:
			return op, false
		}
		eb := uint(e >> 4 & 15)
		length := int(e>>16) + int(bb&(1<<eb-1))
		bb >>= eb
		n -= eb

		e = dt[bb&(1<<distBits-1)]
		if e&kindMask == kindSub {
			e = dt[int(e>>16)+int(bb>>distBits)&(1<<(e>>4&15)-1)]
		}
		if e&kindMask != kindLen {
			return op, false
		}
		bb >>= e & 15
		n -= uint(e & 15)
		eb = uint(e >> 4 & 15)
		dist := int(e>>16) + int(bb&(1<<eb-1))
		bb >>= eb
		n -= eb

		if dist > op-lo || length > len(out)-op {
			return op, false
		}
		ref := op - dist
		switch {
		case dist >= 8 && len(out)-op >= length+8:
			// Eight bytes at a time, overrunning the match by up to seven
			// bytes the next symbol overwrites. A distance of at least 8 means
			// every word read was written before.
			for i := 0; i < length; i += 8 {
				binary.LittleEndian.PutUint64(out[op+i:], binary.LittleEndian.Uint64(out[ref+i:]))
			}
		case dist >= length:
			copy(out[op:op+length], out[ref:])
		default:
			// The match overlaps its own output: it repeats the last dist
			// bytes, so copy what is there, doubling each round.
			for end, w := op+length, op; w < end; {
				w += copy(out[w:end], out[ref:w])
			}
		}
		op += length
	}
}

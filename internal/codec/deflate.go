package codec

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
)

// deflateCodec is a from-scratch whole-block raw DEFLATE (RFC 1951) codec.
// Its levels stand in for the paper's ZSTD settings: a dictionary-window
// entropy-coded scheme that is slower but compresses better than the LZ4
// family (see DESIGN.md for the substitution rationale). Frame: uvarint
// decompressed length + raw DEFLATE stream.
//
// The encoder makes one hash-table LZ77 parse of the whole block, counting
// symbol histograms as it goes, and writes one dynamic Huffman block (or a
// fixed one, or stored blocks, whichever is smallest) straight into dst.
// Level 1 is a single-probe greedy parse; levels 3, 6 and 9 walk hash chains
// of growing depth, and 6 and 9 match lazily.
type deflateCodec struct {
	id    ID
	name  string
	level int
}

func init() {
	register(&deflateCodec{id: Deflate1, name: "deflate-1", level: 1})
	register(&deflateCodec{id: Deflate3, name: "deflate-3", level: 3})
	register(&deflateCodec{id: Deflate6, name: "deflate-6", level: 6})
	register(&deflateCodec{id: Deflate9, name: "deflate-9", level: 9})
}

func (c *deflateCodec) ID() ID       { return c.id }
func (c *deflateCodec) Name() string { return c.name }

func (c *deflateCodec) Compress(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	return deflate(dst, src, c.level)
}

func (c *deflateCodec) Decompress(dst, src []byte) ([]byte, error) {
	want, n := binary.Uvarint(src)
	if n <= 0 {
		return dst, ErrCorrupt
	}
	return inflate(dst, src[n:], want)
}

const (
	maxMatch    = 258
	minMatch    = 4 // the parse finds matches through 4-byte hashes
	maxDistance = 1 << 15
	maxStored   = 1<<16 - 1 // bytes in one stored block

	// A token is a literal byte, or matchFlag | (length-3)<<15 | (distance-1).
	matchFlag = 1 << 31

	fastHashBits  = 14 // level 1's single-probe table
	chainHashBits = 15 // levels 3-9's chain heads
)

// chainParams are zlib's tuning knobs for a chained parse: stop searching at
// a match of nice bytes, search a quarter as deep once the previous match
// reaches good bytes, and look for a better match one byte later only while
// the current one is shorter than lazy (0: greedy).
type chainParams struct{ good, lazy, nice, chain int }

func levelParams(level int) chainParams {
	switch {
	case level <= 3:
		return chainParams{good: 4, nice: 32, chain: 32}
	case level <= 6:
		return chainParams{good: 8, lazy: 16, nice: 128, chain: 128}
	default:
		return chainParams{good: 32, lazy: 258, nice: 258, chain: 4096}
	}
}

// Symbol lookups for the token writer: lenCode[length-3] is the length's
// symbol index (symbol 257+i), distCode the distance's symbol — indexed by
// distance-1 below 256 and by (distance-1)>>7 above.
var lenCode, distCodeLo, distCodeHi = func() (lc [256]uint8, lo, hi [256]uint8) {
	for i := range lenBase {
		for l := int(lenBase[i]); l < int(lenBase[i])+1<<lenExtra[i] && l <= maxMatch; l++ {
			lc[l-3] = uint8(i)
		}
	}
	lc[maxMatch-3] = 28 // 258 has its own symbol, not 284's last extra value
	for i := range distBase {
		for d := int(distBase[i]); d < int(distBase[i])+1<<distExtra[i]; d++ {
			if d <= 256 {
				lo[d-1] = uint8(i)
			} else {
				hi[(d-1)>>7] = uint8(i)
			}
		}
	}
	return
}()

func distCode(d1 uint32) uint32 { // d1 = distance-1
	if d1 < 256 {
		return uint32(distCodeLo[d1])
	}
	return uint32(distCodeHi[d1>>7&255])
}

// deflater is a pooled encoder's state.
type deflater struct {
	head      [1 << chainHashBits]int32 // position+1 of the latest string with each hash
	prev      []int32                   // chained parse: the previous position+1 with the same hash
	tokens    []uint32
	litFreq   [numLitLen]uint32
	distFreq  [numDist]uint32
	litLen    [numLitLen]uint8
	distLen   [numDist]uint8
	clenLen   [numCLen]uint8
	litCodes  [numLitLen]uint32 // bit-reversed code | length<<16
	distCodes [numDist]uint32
	clenCodes [numCLen]uint32
	clenSeq   []uint16 // run-length coded code lengths: symbol | extra<<8
	sorted    []uint64 // buildLengths' scratch: frequency<<16 | symbol
	depth     []int    // buildLengths' scratch: code lengths before the limit
}

var deflaters = sync.Pool{New: func() any { return new(deflater) }}

// deflate appends the raw DEFLATE stream of src at the given level to dst.
func deflate(dst, src []byte, level int) []byte {
	e := deflaters.Get().(*deflater)
	clear(e.litFreq[:])
	clear(e.distFreq[:])
	e.tokens = slices.Grow(e.tokens[:0], len(src))
	if level <= 1 {
		e.parseFast(src)
	} else {
		e.parseChain(src, levelParams(level))
	}
	dst = e.write(dst, src)
	deflaters.Put(e)
	return dst
}

func hash4(v uint32, bits uint) uint32 {
	return v * 2654435761 >> (32 - bits)
}

// matchLen returns the length of the common prefix of a and b, at most
// len(b); a is at least as long as b. It compares eight bytes at a time.
func matchLen(a, b []byte) int {
	n := 0
	for ; len(b)-n >= 8; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// literals records src as literal tokens.
func (e *deflater) literals(src []byte) {
	for _, b := range src {
		e.litFreq[b]++
		e.tokens = append(e.tokens, uint32(b))
	}
}

// match records a match of length bytes at distance dist.
func (e *deflater) match(length, dist int) {
	l3, d1 := uint32(length-3), uint32(dist-1)
	e.litFreq[257+int(lenCode[l3])]++
	e.distFreq[distCode(d1)]++
	e.tokens = append(e.tokens, matchFlag|l3<<15|d1)
}

// parseFast is level 1: one hash-table probe per position, greedy, with
// LZ4's skip acceleration over incompressible stretches.
func (e *deflater) parseFast(src []byte) {
	table := e.head[:1<<fastHashBits]
	clear(table)
	anchor, s := 0, 0
	for s+minMatch <= len(src) {
		cur := binary.LittleEndian.Uint32(src[s:])
		h := hash4(cur, fastHashBits)
		cand := int(table[h]) - 1
		table[h] = int32(s + 1)
		if cand < 0 || s-cand > maxDistance || binary.LittleEndian.Uint32(src[cand:]) != cur {
			s += 1 + (s-anchor)>>5
			continue
		}
		length := minMatch + matchLen(src[cand+minMatch:], src[s+minMatch:min(len(src), s+maxMatch)])
		for length < maxMatch && cand > 0 && s > anchor && src[cand-1] == src[s-1] {
			cand--
			s--
			length++
		}
		e.literals(src[anchor:s])
		e.match(length, s-cand)
		s += length
		anchor = s
		if s+minMatch <= len(src) {
			// Index a position inside the match, as LZ4 does.
			table[hash4(binary.LittleEndian.Uint32(src[s-2:]), fastHashBits)] = int32(s - 1)
		}
	}
	e.literals(src[anchor:])
}

// parseChain is levels 3-9: every position goes into a hash chain, a search
// walks up to p.chain candidates, and with p.lazy set a match is kept only if
// the next position does not start a longer one (zlib's deflate_slow).
func (e *deflater) parseChain(src []byte, p chainParams) {
	clear(e.head[:])
	e.prev = slices.Grow(e.prev[:0], len(src))[:len(src)]
	head, prev := &e.head, e.prev
	insert := func(i int) int {
		h := hash4(binary.LittleEndian.Uint32(src[i:]), chainHashBits)
		cand := int(head[h]) - 1
		prev[i] = head[h]
		head[h] = int32(i + 1)
		return cand
	}
	// longest returns the longest match at s, among up to chain candidates
	// starting at cand, that is longer than best; else 0.
	longest := func(s, cand, best, chain int) (int, int) {
		bestLen, bestDist := 0, 0
		maxLen := min(maxMatch, len(src)-s)
		if best >= maxLen {
			return 0, 0
		}
		want := src[s : s+maxLen]
		for ; cand >= 0 && s-cand <= maxDistance && chain > 0; chain-- {
			if src[cand+best] == want[best] {
				if l := matchLen(src[cand:], want); l > best {
					best, bestLen, bestDist = l, l, s-cand
					if l >= p.nice || l == maxLen {
						break
					}
				}
			}
			cand = int(prev[cand]) - 1
		}
		return bestLen, bestDist
	}
	anchor := 0
	last := len(src) - minMatch // the last position a string can be hashed at
	if p.lazy == 0 {
		for s := 0; s <= last; {
			length, dist := longest(s, insert(s), minMatch-1, p.chain)
			if length == 0 {
				s++
				continue
			}
			e.literals(src[anchor:s])
			e.match(length, dist)
			for i := s + 1; i < s+length && i <= last; i++ {
				insert(i)
			}
			s += length
			anchor = s
		}
		e.literals(src[anchor:])
		return
	}
	prevLen, prevDist := 0, 0 // the match found at s-1, if any
	for s := 0; s < len(src); {
		curLen, curDist := 0, 0
		if s <= last {
			cand := insert(s)
			if prevLen < p.lazy {
				chain := p.chain
				if prevLen >= p.good {
					chain >>= 2
				}
				curLen, curDist = longest(s, cand, max(prevLen, minMatch-1), chain)
			}
		}
		if prevLen >= minMatch && curLen <= prevLen {
			start := s - 1
			e.literals(src[anchor:start])
			e.match(prevLen, prevDist)
			for i := s + 1; i < start+prevLen && i <= last; i++ {
				insert(i)
			}
			s = start + prevLen
			anchor = s
			prevLen = 0
			continue
		}
		prevLen, prevDist = curLen, curDist
		s++
	}
	e.literals(src[anchor:])
}

// write appends the parsed block: one dynamic Huffman block, a fixed one, or
// stored blocks, whichever is smallest.
func (e *deflater) write(dst, src []byte) []byte {
	e.litFreq[256] = 1 // end of block
	e.buildLengths(e.litFreq[:], e.litLen[:], maxCodeLen)
	e.buildLengths(e.distFreq[:], e.distLen[:], maxCodeLen)
	nlit, ndist := 257, 1
	for s, l := range e.litLen {
		if l > 0 {
			nlit = max(nlit, s+1)
		}
	}
	for s, l := range e.distLen {
		if l > 0 {
			ndist = max(ndist, s+1)
		}
	}
	nclen, headerBits := e.codeLengthCodes(nlit, ndist)

	var extra, dynBits, fixBits int
	for i := range lenExtra {
		f := int(e.litFreq[257+i])
		extra += f * int(lenExtra[i])
		dynBits += f * int(e.litLen[257+i])
		fixBits += f * fixedLitLen(257+i)
	}
	for s := range 257 {
		f := int(e.litFreq[s])
		dynBits += f * int(e.litLen[s])
		fixBits += f * fixedLitLen(s)
	}
	for i, f := range e.distFreq {
		extra += int(f) * int(distExtra[i])
		dynBits += int(f) * int(e.distLen[i])
		fixBits += int(f) * 5
	}
	dynBits += 3 + headerBits + extra
	fixBits += 3 + extra
	storedBytes := len(src) + 5*max(1, (len(src)+maxStored-1)/maxStored)

	if storedBytes*8 <= min(dynBits, fixBits) {
		return appendStored(dst, src)
	}
	// The block is at most min(dynBits, fixBits) bits; eight bytes of slack
	// let every flush store a whole word.
	base := len(dst)
	dst = slices.Grow(dst, min(dynBits, fixBits)/8+9)
	w := bitWriter{out: dst[:cap(dst)], o: base}
	if fixBits < dynBits {
		w.put(3, 3) // final, fixed
		e.writeTokens(&w, &fixedLitCodes, &fixedDistCodes)
	} else {
		w.put(5, 3) // final, dynamic
		w.put(uint64(nlit-257), 5)
		w.put(uint64(ndist-1), 5)
		w.put(uint64(nclen-4), 4)
		w.flush()
		for _, s := range clenOrder[:nclen] {
			w.put(uint64(e.clenLen[s]), 3)
			w.flush()
		}
		for _, c := range e.clenSeq {
			sym := c & 0xff
			w.put(uint64(e.clenCodes[sym]&0xffff), uint(e.clenCodes[sym]>>16))
			switch sym {
			case 16:
				w.put(uint64(c>>8), 2)
			case 17:
				w.put(uint64(c>>8), 3)
			case 18:
				w.put(uint64(c>>8), 7)
			}
			w.flush()
		}
		codes(e.litLen[:], e.litCodes[:])
		codes(e.distLen[:], e.distCodes[:])
		e.writeTokens(&w, &e.litCodes, &e.distCodes)
	}
	if w.n > 0 {
		w.o++ // the last partial byte, already stored by the last flush
	}
	return dst[:w.o]
}

// writeTokens writes the block's tokens and its end-of-block code.
func (e *deflater) writeTokens(w *bitWriter, lit *[numLitLen]uint32, dist *[numDist]uint32) {
	out, o, acc, n := w.out, w.o, w.acc, w.n
	for _, t := range e.tokens {
		if t < matchFlag {
			c := lit[t&255]
			acc |= uint64(c&0xffff) << n
			n += uint(c >> 16)
		} else {
			l3 := t >> 15 & 255
			i := lenCode[l3]
			c := lit[257+int(i)]
			acc |= uint64(c&0xffff) << n
			n += uint(c >> 16)
			acc |= uint64(l3+3-uint32(lenBase[i])) << n
			n += uint(lenExtra[i])
			d1 := t & (maxDistance - 1)
			ds := distCode(d1)
			c = dist[ds]
			acc |= uint64(c&0xffff) << n
			n += uint(c >> 16)
			acc |= uint64(d1+1-uint32(distBase[ds])) << n
			n += uint(distExtra[ds])
		}
		binary.LittleEndian.PutUint64(out[o:], acc)
		o += int(n >> 3)
		acc >>= n &^ 7
		n &= 7
	}
	c := lit[256]
	acc |= uint64(c&0xffff) << n
	n += uint(c >> 16)
	w.o, w.acc, w.n = o, acc, n
	w.flush()
}

// bitWriter writes LSB first into out, which has at least eight bytes of
// room past the last byte the stream fills.
type bitWriter struct {
	out []byte
	o   int
	acc uint64 // pending bits, fewer than 8 after a flush
	n   uint
}

// put adds the k low bits of v; at most 56 bits may be pending before a flush.
func (w *bitWriter) put(v uint64, k uint) {
	w.acc |= v << w.n
	w.n += k
}

// flush stores every whole pending byte.
func (w *bitWriter) flush() {
	binary.LittleEndian.PutUint64(w.out[w.o:], w.acc)
	w.o += int(w.n >> 3)
	w.acc >>= w.n &^ 7
	w.n &= 7
}

// appendStored appends src as stored blocks, the last one final.
func appendStored(dst, src []byte) []byte {
	for {
		n := min(len(src), maxStored)
		final := byte(0)
		if n == len(src) {
			final = 1
		}
		dst = append(dst, final, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
		dst = append(dst, src[:n]...)
		src = src[n:]
		if final == 1 {
			return dst
		}
	}
}

// codeLengthCodes run-length codes the lit/len and distance code lengths
// into e.clenSeq, builds the code-length code, and returns how many of its
// lengths the header stores and the header's size in bits after the block
// type.
func (e *deflater) codeLengthCodes(nlit, ndist int) (int, int) {
	var seq [numLitLen + numDist]uint8
	n := copy(seq[:], e.litLen[:nlit])
	n += copy(seq[n:], e.distLen[:ndist])
	var freq [numCLen]uint32
	e.clenSeq = e.clenSeq[:0]
	emit := func(sym, extra int) {
		freq[sym]++
		e.clenSeq = append(e.clenSeq, uint16(sym|extra<<8))
	}
	for i := 0; i < n; {
		v := seq[i]
		run := 1
		for i+run < n && seq[i+run] == v {
			run++
		}
		i += run
		if v == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, min(run, 138)-11)
			}
			for ; run >= 3; run -= min(run, 10) {
				emit(17, min(run, 10)-3)
			}
		} else {
			emit(int(v), 0)
			run--
			for ; run >= 3; run -= min(run, 6) {
				emit(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			emit(int(v), 0)
		}
	}
	e.buildLengths(freq[:], e.clenLen[:], 7)
	codes(e.clenLen[:], e.clenCodes[:])
	nclen := numCLen
	for nclen > 4 && e.clenLen[clenOrder[nclen-1]] == 0 {
		nclen--
	}
	bitsN := 5 + 5 + 4 + 3*nclen
	for s, f := range freq {
		bitsN += int(f) * int(e.clenLen[s])
	}
	bitsN += int(freq[16])*2 + int(freq[17])*3 + int(freq[18])*7
	return nclen, bitsN
}

// buildLengths sets lens to a Huffman code for freq limited to maxBits bits.
// Like zlib it gives every code at least two symbols, so each code is
// complete: a missing one is filled in with a zero-frequency symbol.
func (e *deflater) buildLengths(freq []uint32, lens []uint8, maxBits int) {
	clear(lens)
	s := e.sorted[:0]
	for sym, f := range freq {
		if f > 0 {
			s = append(s, uint64(f)<<16|uint64(sym))
		}
	}
	for sym := 0; len(s) < 2; sym++ {
		if freq[sym] == 0 {
			s = append(s, uint64(sym))
		}
	}
	slices.Sort(s)
	e.sorted = s
	n := len(s)
	depth := slices.Grow(e.depth[:0], n)[:n]
	for i, k := range s {
		depth[i] = int(k >> 16)
	}
	minRedundancy(depth)
	e.depth = depth
	// Clamp to maxBits and restore the Kraft equality (zlib's and miniz's
	// overflow fix-up), then hand the shortest lengths to the most frequent
	// symbols.
	var count [numLitLen + 2]int
	for _, d := range depth {
		count[min(int(d), maxBits)]++
	}
	total := 0
	for l := maxBits; l > 0; l-- {
		total += count[l] << (maxBits - l)
	}
	for ; total > 1<<maxBits; total-- {
		count[maxBits]--
		for l := maxBits - 1; l > 0; l-- {
			if count[l] > 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}
	j := n
	for l := 1; l <= maxBits; l++ {
		for k := count[l]; k > 0; k-- {
			j--
			lens[s[j]&0xffff] = uint8(l)
		}
	}
}

// minRedundancy is Moffat and Katajainen's in-place minimum-redundancy code:
// given symbol frequencies in ascending order, at least two of them, it
// leaves in a[i] the code length of the i-th symbol.
func minRedundancy(a []int) {
	n := len(a)
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		// Each internal node takes the two lightest of the unused leaves and
		// the internal nodes not yet joined; a joined node's slot keeps its
		// parent's index.
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = next
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = next
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	// Internal nodes' depths, from the root down.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	// Leaves: each level has twice as many slots as the level above had
	// internal nodes; the slots not taken by internal nodes are leaves.
	avail, used, depth := 1, 0, 0
	root = n - 2
	for next := n - 1; avail > 0; depth++ {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for ; avail > used; avail-- {
			a[next] = depth
			next--
		}
		avail, used = 2*used, 0
	}
}

// codes assigns the canonical code of each length in lens, bit-reversed for
// the LSB-first stream, as code | length<<16.
func codes(lens []uint8, out []uint32) {
	var count [maxCodeLen + 1]uint32
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	var next [maxCodeLen + 1]uint32
	for l, code := 1, uint32(0); l <= maxCodeLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lens {
		if l == 0 {
			out[s] = 0
			continue
		}
		out[s] = reverse(next[l], l) | uint32(l)<<16
		next[l]++
	}
}

// fixedLitLen is the fixed Huffman code's length for lit/len symbol s.
func fixedLitLen(s int) int {
	switch {
	case s < 144:
		return 8
	case s < 256:
		return 9
	case s < 280:
		return 7
	default:
		return 8
	}
}

// The fixed Huffman code, as codes writes it.
var fixedLitCodes, fixedDistCodes = func() (lit [numLitLen]uint32, dist [numDist]uint32) {
	// Symbols 286 and 287 take part in the code but are never sent.
	var lens [288]uint8
	var all [288]uint32
	for s := range lens {
		lens[s] = uint8(fixedLitLen(s))
	}
	codes(lens[:], all[:])
	copy(lit[:], all[:])
	// The distance code has 32 five-bit codes, of which the first 30 are used.
	for s := range dist {
		dist[s] = reverse(uint32(s), 5) | 5<<16
	}
	return
}()

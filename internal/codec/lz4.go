package codec

import (
	"encoding/binary"
	"slices"
)

// lz4Codec implements the LZ4 block format from scratch. The fast path uses
// a single-probe hash table with LZ4's acceleration skip heuristic; the
// high-compression path (depth > 0) uses hash chains and examines up to
// depth candidates per position, like lz4hc. Together the settings span the
// lower-left region of the paper's Figure 3 trade-off curve.
//
// Frame layout: uvarint(decompressed length) followed by LZ4 block
// sequences: token (hi nibble literal length, lo nibble match length - 4,
// 15 = extension bytes follow), literals, 2-byte little-endian match offset,
// match length extension bytes. The final sequence is literals-only.
type lz4Codec struct {
	id    ID
	name  string
	accel int // fast path: skip acceleration (>=1); larger = faster, worse ratio
	depth int // HC path: candidates per position; 0 selects the fast path
}

func init() {
	register(&lz4Codec{id: LZ4Fastest, name: "lz4-a8", accel: 8})
	register(&lz4Codec{id: LZ4Fast, name: "lz4-a4", accel: 4})
	register(&lz4Codec{id: LZ4Default, name: "lz4", accel: 1})
	register(&lz4Codec{id: LZ4HC4, name: "lz4-hc4", accel: 1, depth: 4})
	register(&lz4Codec{id: LZ4HC16, name: "lz4-hc16", accel: 1, depth: 16})
	register(&lz4Codec{id: LZ4HC64, name: "lz4-hc64", accel: 1, depth: 64})
}

func (c *lz4Codec) ID() ID       { return c.id }
func (c *lz4Codec) Name() string { return c.name }

const (
	lz4MinMatch   = 4
	lz4MaxOffset  = 65535
	lz4HashLog    = 14
	lz4TableSize  = 1 << lz4HashLog
	lz4LastLits   = 5  // spec: last 5 bytes are always literals
	lz4MatchGuard = 12 // spec: no match may start within the last 12 bytes
)

func lz4Hash(v uint32) uint32 {
	return v * 2654435761 >> (32 - lz4HashLog)
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

func (c *lz4Codec) Compress(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	if len(src) < lz4MatchGuard+lz4MinMatch {
		// Too short for any match: single literal run.
		return lz4EmitFinal(dst, src)
	}
	if c.depth == 0 {
		return c.compressFast(dst, src)
	}
	return c.compressHC(dst, src)
}

// compressFast is the fast path: one hash-table probe per position with
// skip acceleration, matches extended eight bytes at a time, and ip-2
// re-indexed after each match, as reference LZ4 does.
func (c *lz4Codec) compressFast(dst, src []byte) []byte {
	var table [lz4TableSize]int32 // position+1 of last occurrence of each hash
	anchor := 0
	ip := 1 // position 0 can never reference an earlier match
	limit := len(src) - lz4MatchGuard
	end := len(src) - lz4LastLits
	table[lz4Hash(load32(src, 0))] = 1
	for ip <= limit {
		cur := load32(src, ip)
		h := lz4Hash(cur)
		cand := int(table[h]) - 1
		table[h] = int32(ip + 1)
		if cand < 0 || ip-cand > lz4MaxOffset || load32(src, cand) != cur {
			ip = lz4Advance(ip, anchor, c.accel)
			continue
		}
		n := lz4MinMatch + lz4ExtendMatch(src, cand+lz4MinMatch, ip+lz4MinMatch, end)
		// Extend the match backward over pending literals.
		for cand > 0 && ip > anchor && src[cand-1] == src[ip-1] {
			cand--
			ip--
			n++
		}
		dst = lz4EmitSequence(dst, src[anchor:ip], ip-cand, n)
		ip += n
		anchor = ip
		if ip <= limit {
			table[lz4Hash(load32(src, ip-2))] = int32(ip - 1)
		}
	}
	return lz4EmitFinal(dst, src[anchor:])
}

// compressHC is the high-compression path: hash chains, the longest of up to
// depth candidates per position, and every position inside a match indexed.
func (c *lz4Codec) compressHC(dst, src []byte) []byte {
	var table [lz4TableSize]int32    // position+1 of last occurrence of each hash
	chain := make([]int32, len(src)) // previous position+1 with same hash
	anchor := 0
	ip := 1
	limit := len(src) - lz4MatchGuard
	end := len(src) - lz4LastLits
	table[lz4Hash(load32(src, 0))] = 1
	for ip <= limit {
		h := lz4Hash(load32(src, ip))
		cand := int(table[h]) - 1
		chain[ip] = table[h]
		table[h] = int32(ip + 1)

		// Walk the chain, keep the longest match.
		bestPos, bestLen := -1, 0
		for probes := 0; cand >= 0 && ip-cand <= lz4MaxOffset && probes < c.depth; probes++ {
			if load32(src, cand) == load32(src, ip) {
				if l := lz4ExtendMatch(src, cand, ip, end); l > bestLen {
					bestLen, bestPos = l, cand
				}
			}
			cand = int(chain[cand]) - 1
		}
		if bestLen < lz4MinMatch {
			ip = lz4Advance(ip, anchor, c.accel)
			continue
		}
		for bestPos > 0 && ip > anchor && src[bestPos-1] == src[ip-1] {
			bestPos--
			ip--
			bestLen++
		}
		dst = lz4EmitSequence(dst, src[anchor:ip], ip-bestPos, bestLen)
		ip += bestLen
		anchor = ip
		for j := ip - bestLen + 1; j < ip && j <= limit; j++ {
			hj := lz4Hash(load32(src, j))
			chain[j] = table[hj]
			table[hj] = int32(j + 1)
		}
	}
	return lz4EmitFinal(dst, src[anchor:])
}

// lz4Advance applies LZ4's skip-acceleration step: after many consecutive
// literal misses the search stride grows, trading ratio for speed. Higher
// acceleration settings grow the stride faster.
func lz4Advance(ip, anchor, accel int) int {
	return ip + 1 + (ip-anchor)>>6*accel
}

// lz4ExtendMatch returns the match length between positions ref and pos,
// scanning no further than end, eight bytes at a time.
func lz4ExtendMatch(src []byte, ref, pos, end int) int {
	return matchLen(src[ref:], src[pos:end])
}

func lz4EmitSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	ml := matchLen - lz4MinMatch
	token := byte(0)
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	if ml >= 15 {
		token |= 15
	} else {
		token |= byte(ml)
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = lz4EmitLen(dst, litLen-15)
	}
	dst = append(dst, literals...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = lz4EmitLen(dst, ml-15)
	}
	return dst
}

// lz4EmitFinal writes the trailing literals-only sequence.
func lz4EmitFinal(dst, literals []byte) []byte {
	litLen := len(literals)
	token := byte(0)
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = lz4EmitLen(dst, litLen-15)
	}
	return append(dst, literals...)
}

func lz4EmitLen(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

func (c *lz4Codec) Decompress(dst, src []byte) ([]byte, error) {
	return lz4Decompress(dst, src)
}

func lz4Decompress(dst, src []byte) ([]byte, error) {
	want, n := binary.Uvarint(src)
	if n <= 0 {
		return dst, ErrCorrupt
	}
	src = src[n:]
	// A length byte of a match adds at most 255 bytes of output, so no frame
	// expands further: a header claiming more is refused before it sizes out.
	if want > 255*uint64(len(src)) {
		return dst, ErrCorrupt
	}
	base := len(dst)
	out := slices.Grow(dst, int(want))[:base+int(want)]
	sp, op := 0, base // next byte of src to read, of out to write
	for sp < len(src) {
		token := src[sp]
		sp++
		// Literals.
		litLen := int(token >> 4)
		if litLen == 15 {
			var ok bool
			if litLen, sp, ok = lz4ReadLen(litLen, src, sp); !ok {
				return dst, ErrCorrupt
			}
		}
		switch {
		case litLen <= 16 && len(src)-sp >= 16 && len(out)-op >= 16:
			// Short runs are the common case and a call to copy costs more
			// than they do: move 16 bytes in one load and store regardless;
			// the next sequence overwrites the excess.
			*(*[16]byte)(out[op:]) = *(*[16]byte)(src[sp:])
		case litLen > len(src)-sp || litLen > len(out)-op:
			return dst, ErrCorrupt
		default:
			copy(out[op:], src[sp:sp+litLen])
		}
		sp += litLen
		op += litLen
		if sp == len(src) {
			break // final literals-only sequence
		}
		// Match.
		if len(src)-sp < 2 {
			return dst, ErrCorrupt
		}
		offset := int(src[sp]) | int(src[sp+1])<<8
		sp += 2
		if offset == 0 || offset > op-base {
			return dst, ErrCorrupt
		}
		matchLen := int(token & 15)
		if matchLen == 15 {
			var ok bool
			if matchLen, sp, ok = lz4ReadLen(matchLen, src, sp); !ok {
				return dst, ErrCorrupt
			}
		}
		matchLen += lz4MinMatch
		ref := op - offset
		switch {
		case matchLen <= 16 && offset >= 16 && len(out)-op >= 16:
			*(*[16]byte)(out[op:]) = *(*[16]byte)(out[ref:]) // as for literals
		case matchLen > len(out)-op:
			return dst, ErrCorrupt
		case offset >= matchLen:
			copy(out[op:op+matchLen], out[ref:])
		default:
			// An overlapping match repeats its own output (the RLE case):
			// it must copy forward one byte at a time.
			for i := 0; i < matchLen; i++ {
				out[op+i] = out[ref+i]
			}
		}
		op += matchLen
	}
	if op != len(out) {
		return dst, ErrCorrupt
	}
	return out, nil
}

// lz4ReadLen adds the length bytes at src[p:] to n and returns the position
// after them.
func lz4ReadLen(n int, src []byte, p int) (int, int, bool) {
	for p < len(src) {
		b := src[p]
		p++
		n += int(b)
		if b != 255 {
			return n, p, true
		}
	}
	return 0, p, false
}

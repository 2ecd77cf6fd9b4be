package codec

import (
	"encoding/binary"
	"slices"
	"sync"
)

// bwtCodec is a from-scratch Burrows-Wheeler block-sorting compressor
// standing in for BZ2: a BWT (via a prefix-doubling suffix array over the
// block plus sentinel), a move-to-front transform, and a DEFLATE entropy
// stage (the deflate codecs' encoder at level 6). Like BZ2 in the paper's
// Figure 3, it compresses well but its cost is an order of magnitude above
// the other schemes, so the unified scale excludes it.
type bwtCodec struct{}

// bwtState is a pooled coder's scratch, grown to the largest block seen.
type bwtState struct {
	sa, rank, tmp []int32 // suffixArray
	lf            []int32 // inverse: the LF mapping
	full          []uint16
	l             []byte // the transformed block
}

var bwtStates = sync.Pool{New: func() any { return new(bwtState) }}

func init() { register(bwtCodec{}) }

func (bwtCodec) ID() ID       { return BWT }
func (bwtCodec) Name() string { return "bwt" }

func (bwtCodec) Compress(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	st := bwtStates.Get().(*bwtState)
	l, primary := st.forward(src)
	dst = binary.AppendUvarint(dst, uint64(primary))
	mtfEncode(l)
	dst = deflate(dst, l, 6)
	bwtStates.Put(st)
	return dst
}

func (bwtCodec) Decompress(dst, src []byte) ([]byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return dst, ErrCorrupt
	}
	src = src[k:]
	if n == 0 {
		return dst, nil
	}
	primary, k := binary.Uvarint(src)
	if k <= 0 || primary > n {
		return dst, ErrCorrupt
	}
	st := bwtStates.Get().(*bwtState)
	defer bwtStates.Put(st)
	l, err := inflate(st.l[:0], src[k:], n)
	if err != nil {
		return dst, err
	}
	st.l = l
	mtfDecode(l)
	return st.inverse(dst, l, int(primary))
}

// forward returns the Burrows-Wheeler transform of src (computed over src
// plus a virtual sentinel smaller than every byte) with the sentinel
// position removed, plus that position ("primary index"). The transform is
// st's scratch, valid until st's next use.
func (st *bwtState) forward(src []byte) (l []byte, primary int) {
	sa := st.suffixArray(src)
	l = slices.Grow(st.l[:0], len(src))
	for i, j := range sa {
		if j == 0 {
			primary = i
			continue // this row's last column is the sentinel; dropped
		}
		l = append(l, src[j-1])
	}
	st.l = l
	return l, primary
}

// inverse reverses forward, appending the block to dst.
func (st *bwtState) inverse(dst, l []byte, primary int) ([]byte, error) {
	n := len(l)
	m := n + 1
	if primary > n {
		return dst, ErrCorrupt
	}
	// Rebuild the full last column with the sentinel (symbol 0; bytes are
	// shifted up by one).
	full := slices.Grow(st.full[:0], m)[:m]
	st.full = full
	for i, idx := 0, 0; i < m; i++ {
		if i == primary {
			full[i] = 0
			continue
		}
		full[i] = uint16(l[idx]) + 1
		idx++
	}
	// LF mapping: LF[i] = C[c] + rank of c within full[0..i].
	var counts [257]int
	for _, c := range full {
		counts[c]++
	}
	var c [257]int
	sum := 0
	for s := 0; s < 257; s++ {
		c[s] = sum
		sum += counts[s]
	}
	lf := slices.Grow(st.lf[:0], m)[:m]
	st.lf = lf
	var seen [257]int
	for i, ch := range full {
		lf[i] = int32(c[ch] + seen[ch])
		seen[ch]++
	}
	// Row 0 is the rotation starting with the sentinel; its last column is
	// the final byte of the text. Walk backward n times.
	base := len(dst)
	out := slices.Grow(dst, n)[:base+n]
	i := int32(0)
	for k := n - 1; k >= 0; k-- {
		ch := full[i]
		if ch == 0 {
			return dst, ErrCorrupt // hit the sentinel too early
		}
		out[base+k] = byte(ch - 1)
		i = lf[i]
	}
	return out, nil
}

// suffixArray computes the suffix array of s plus a sentinel smaller than
// all bytes, by prefix doubling (O(n log^2 n)), in st's scratch. Adequate
// for 64 KiB pages; the BWT codec is *supposed* to be expensive (it plays
// BZ2's role).
func (st *bwtState) suffixArray(s []byte) []int32 {
	m := len(s) + 1
	st.sa = slices.Grow(st.sa[:0], m)[:m]
	st.rank = slices.Grow(st.rank[:0], m)[:m]
	st.tmp = slices.Grow(st.tmp[:0], m)[:m]
	sa, rank, tmp := st.sa, st.rank, st.tmp
	for i := range sa {
		sa[i] = int32(i)
	}
	for i := 0; i < len(s); i++ {
		rank[i] = int32(s[i]) + 1
	}
	rank[m-1] = 0 // sentinel
	for k := 1; ; k *= 2 {
		second := func(i int32) int32 {
			if int(i)+k < m {
				return rank[int(i)+k] + 1
			}
			return 0
		}
		slices.SortFunc(sa, func(x, y int32) int {
			if rank[x] != rank[y] {
				return int(rank[x] - rank[y])
			}
			return int(second(x) - second(y))
		})
		tmp[sa[0]] = 0
		for i := 1; i < m; i++ {
			p, q := sa[i-1], sa[i]
			tmp[q] = tmp[p]
			if rank[p] != rank[q] || second(p) != second(q) {
				tmp[q]++
			}
		}
		copy(rank, tmp)
		if int(rank[sa[m-1]]) == m-1 && int(rank[sa[0]]) == 0 && allDistinct(rank, m) {
			break
		}
		if k > m {
			break
		}
	}
	return sa
}

func allDistinct(rank []int32, m int) bool {
	// Ranks are distinct iff the maximum rank equals m-1.
	var max int32
	for _, r := range rank {
		if r > max {
			max = r
		}
	}
	return int(max) == m-1
}

// mtfEncode applies the move-to-front transform in place.
func mtfEncode(data []byte) {
	var alphabet [256]byte
	for i := range alphabet {
		alphabet[i] = byte(i)
	}
	for i, b := range data {
		var j int
		for alphabet[j] != b {
			j++
		}
		data[i] = byte(j)
		copy(alphabet[1:], alphabet[:j])
		alphabet[0] = b
	}
}

// mtfDecode reverses mtfEncode in place.
func mtfDecode(data []byte) {
	var alphabet [256]byte
	for i := range alphabet {
		alphabet[i] = byte(i)
	}
	for i, j := range data {
		b := alphabet[j]
		data[i] = b
		copy(alphabet[1:], alphabet[:j])
		alphabet[0] = b
	}
}

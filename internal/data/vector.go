package data

import (
	"math"
	"slices"

	"github.com/spilly-db/spilly/internal/xhash"
)

// Hash seeds shared by the scalar (HashRow/HashTuple) and vectorized
// (HashColumns) paths — they must agree bit-for-bit, since Umami partition
// numbers and hash-table buckets are derived from these values on both
// sides of a spill.
const (
	hashSeed    = 0x517cc1b727220a95 // initial key-hash accumulator
	hashNullTag = 0x9e3779b97f4a7c15 // NULL fields hash to a fixed tag
	hashField   = 17                 // per-field seed
)

// HashColumns hashes the key columns of every live row of b
// column-at-a-time, appending one hash per live row to out (returned).
// It produces exactly the values HashRow would per row, but hoists the
// per-row type dispatch and null-bitmap checks out of the loop — the
// batch kernel behind join build/probe, aggregation, and window
// materialization.
func HashColumns(b *Batch, sel []int32, keyCols []int, out []uint64) []uint64 {
	n := b.n
	if sel != nil {
		n = len(sel)
	}
	base := len(out)
	out = slices.Grow(out, n)[:base+n]
	hs := out[base:]
	for i := range hs {
		hs[i] = hashSeed
	}
	for _, col := range keyCols {
		c := &b.Cols[col]
		if c.Null != nil {
			// Null-aware slow lane (outer-join outputs only).
			for i := range hs {
				r := i
				if sel != nil {
					r = int(sel[i])
				}
				if c.Null[r] {
					hs[i] = xhash.Combine(hs[i], hashNullTag)
					continue
				}
				switch c.Type {
				case Float64:
					hs[i] = xhash.Combine(hs[i], xhash.U64(math.Float64bits(c.F[r]), hashField))
				case String:
					hs[i] = xhash.Combine(hs[i], xhash.String(c.S[r], hashField))
				default:
					hs[i] = xhash.Combine(hs[i], xhash.U64(uint64(c.I[r]), hashField))
				}
			}
			continue
		}
		switch c.Type {
		case Float64:
			if sel == nil {
				xhash.CombineF64s(hs, c.F[:n], hashField)
			} else {
				vals := c.F
				for i, r := range sel {
					hs[i] = xhash.Combine(hs[i], xhash.U64(math.Float64bits(vals[r]), hashField))
				}
			}
		case String:
			if sel == nil {
				xhash.CombineStrings(hs, c.S[:n], hashField)
			} else {
				vals := c.S
				for i, r := range sel {
					hs[i] = xhash.Combine(hs[i], xhash.String(vals[r], hashField))
				}
			}
		default:
			if sel == nil {
				xhash.CombineU64s(hs, c.I[:n], hashField)
			} else {
				vals := c.I
				for i, r := range sel {
					hs[i] = xhash.Combine(hs[i], xhash.U64(uint64(vals[r]), hashField))
				}
			}
		}
	}
	return out
}

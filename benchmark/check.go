package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/xhash"
)

// outcome is what the benchmark keeps of one result batch so that it can be
// checked against the reference after the timed interval, in any row order.
//
// Integer, date and string cells are hashed exactly. Float cells are not:
// parallel summation order changes from run to run, and at SF 0.1 the Q1 sums
// (~5e9) already differ in the fifth decimal, so rounding to a fixed number of
// decimals (chaos.Fingerprint's rule) flips at random. TPC-H results are small,
// so their float cells are kept and compared with a relative tolerance. The
// wide micro_spill outputs copy or add floats in a fixed order, so there the
// float bits are hashed too and only the hash sum is kept.
type outcome struct {
	rows int
	sum  uint64     // Σ row hashes, wrapping: order-insensitive
	rest []floatRow // tolerant outcomes only, sorted
}

type floatRow struct {
	key    uint64 // hash of the row's non-float cells
	floats []float64
}

const (
	checkSeed = 0x5b1117
	nullTag   = 0x6e756c6c
	floatTol  = 1e-9
)

// digest reduces a result batch to its outcome. exact selects the hash-only
// form for wide outputs.
func digest(b *data.Batch, exact bool) outcome {
	if b == nil {
		return outcome{}
	}
	o := outcome{rows: b.Rows()}
	for i := 0; i < o.rows; i++ {
		r := b.Row(i)
		h := uint64(checkSeed)
		var fl []float64
		for c := range b.Cols {
			col := &b.Cols[c]
			seed := uint64(checkSeed + c)
			var cell uint64
			switch {
			case col.Null != nil && col.Null[r]:
				cell = xhash.U64(nullTag, seed)
				if col.Type == data.Float64 && !exact {
					fl = append(fl, math.NaN())
				}
			case col.Type == data.Float64:
				if !exact {
					fl = append(fl, col.F[r])
					continue
				}
				cell = xhash.U64(math.Float64bits(col.F[r]), seed)
			case col.Type == data.String:
				cell = xhash.String(col.S[r], seed)
			default:
				cell = xhash.U64(uint64(col.I[r]), seed)
			}
			h = xhash.Combine(h, cell)
		}
		o.sum += h
		if !exact {
			o.rest = append(o.rest, floatRow{key: h, floats: fl})
		}
	}
	sort.Slice(o.rest, func(i, j int) bool {
		a, b := o.rest[i], o.rest[j]
		if a.key != b.key {
			return a.key < b.key
		}
		for k := range a.floats {
			if a.floats[k] != b.floats[k] {
				return a.floats[k] < b.floats[k]
			}
		}
		return false
	})
	return o
}

// differs explains how got departs from the reference, or returns "".
func (want outcome) differs(got outcome) string {
	if got.rows != want.rows {
		return fmt.Sprintf("%d rows, want %d", got.rows, want.rows)
	}
	if got.sum != want.sum {
		return "exact cells differ"
	}
	for i, w := range want.rest {
		g := got.rest[i]
		if len(g.floats) != len(w.floats) {
			return "float columns differ"
		}
		for k, wf := range w.floats {
			gf := g.floats[k]
			if math.IsNaN(wf) && math.IsNaN(gf) {
				continue
			}
			if !(math.Abs(gf-wf) <= floatTol*math.Max(1, math.Max(math.Abs(gf), math.Abs(wf)))) {
				return fmt.Sprintf("float cell %v, want %v", gf, wf)
			}
		}
	}
	return ""
}

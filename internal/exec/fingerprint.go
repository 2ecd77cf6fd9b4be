package exec

import (
	"math"

	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/xhash"
)

// PlanFingerprint computes a canonical structural hash of a plan tree:
// two plans with the same fingerprint read the same tables through the
// same operators with the same expressions, keys, and literals, so —
// against the same catalog generation — they produce the same result.
// The result cache uses this as its key (DESIGN.md §14).
//
// The second return reports cacheability. A plan is uncacheable when it
// contains a node type this walker does not know; such plans fingerprint to
// 0 and are executed normally. Every expression carries the hash its
// constructor recorded, since an Expr with behaviour can only come from one.
// ValuesNode content *is* hashed — scalar-subquery results embedded in a
// plan are part of its identity.
func PlanFingerprint(n Node) (uint64, bool) {
	fp := nodeFP(n)
	return fp, fp != 0
}

func nodeFP(n Node) uint64 {
	switch v := n.(type) {
	case *Scan:
		// The snapshot ID — not just the name — keys the scan: a plan
		// built over an old snapshot of a re-registered table must never
		// share a cache entry with plans over the new one, even within a
		// single catalog generation (the plan may have been built before
		// the registration that bumped it).
		parts := []uint64{
			xhash.String(v.Table.Name(), fpSeed),
			fpNz(xhash.U64(v.Table.ID(), fpSeed)),
		}
		for _, c := range v.Cols {
			parts = append(parts, xhash.String(c, fpSeed))
		}
		parts = append(parts, v.Filter.fingerprint())
		return fpNode("scan", parts...)
	case *FilterNode:
		return fpNode("filter", nodeFP(v.Child), v.Pred.fingerprint())
	case *Project:
		parts := []uint64{nodeFP(v.Child)}
		for i, name := range v.Names {
			parts = append(parts, xhash.String(name, fpSeed), v.Exprs[i].fingerprint())
		}
		return fpNode("project", parts...)
	case *ValuesNode:
		return fpNode("values", batchFP(v.Batch))
	case *Join:
		parts := []uint64{
			xhash.U64(uint64(v.Kind), fpSeed),
			nodeFP(v.Build),
			nodeFP(v.Probe),
		}
		for _, k := range v.BuildKeys {
			parts = append(parts, xhash.String(k, fpSeed))
		}
		for _, k := range v.ProbeKeys {
			parts = append(parts, xhash.String(k, fpSeed))
		}
		return fpNode("join", parts...)
	case *Agg:
		parts := []uint64{nodeFP(v.Child)}
		for _, g := range v.GroupBy {
			parts = append(parts, xhash.String(g, fpSeed))
		}
		for _, a := range v.Aggs {
			parts = append(parts,
				xhash.U64(uint64(a.Func), fpSeed),
				xhash.String(a.Col, fpSeed),
				xhash.String(a.As, fpSeed))
		}
		return fpNode("agg", parts...)
	case *ExtSort:
		parts := []uint64{nodeFP(v.Child), xhash.U64(uint64(int64(v.Limit)), fpSeed)}
		for _, k := range v.Keys {
			parts = append(parts, xhash.String(k.Col, fpSeed), xhash.U64(boolBit(k.Desc), fpSeed))
		}
		return fpNode("extsort", parts...)
	case *Window:
		parts := []uint64{nodeFP(v.Child)}
		for _, p := range v.PartitionBy {
			parts = append(parts, xhash.String(p, fpSeed))
		}
		for _, k := range v.OrderBy {
			parts = append(parts, xhash.String(k.Col, fpSeed), xhash.U64(boolBit(k.Desc), fpSeed))
		}
		for _, f := range v.Funcs {
			parts = append(parts,
				xhash.U64(uint64(f.Func), fpSeed),
				xhash.String(f.Col, fpSeed),
				xhash.String(f.As, fpSeed),
				xhash.U64(uint64(f.Frame), fpSeed),
				xhash.U64(uint64(int64(f.Lo)), fpSeed),
				xhash.U64(uint64(int64(f.Hi)), fpSeed))
		}
		return fpNode("window", parts...)
	default:
		return 0
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// batchFP hashes a batch's schema and full content. Values batches come
// from scalar subqueries and literal relations, so they are tiny; hashing
// their payload keeps plans with different subquery results distinct.
func batchFP(b *data.Batch) uint64 {
	if b == nil {
		return xhash.String("nilbatch", fpSeed)
	}
	h := xhash.U64(uint64(int64(b.Rows())), fpSeed)
	for _, cd := range b.Schema.Cols {
		h = xhash.Combine(h, xhash.String(cd.Name, fpSeed))
		h = xhash.Combine(h, xhash.U64(uint64(cd.Type), fpSeed))
	}
	for ci := range b.Cols {
		c := &b.Cols[ci]
		for i := 0; i < b.Rows(); i++ {
			r := b.Row(i)
			switch c.Type {
			case data.String:
				h = xhash.Combine(h, xhash.String(c.S[r], fpSeed))
			case data.Float64:
				h = xhash.Combine(h, xhash.U64(math.Float64bits(c.F[r]), fpSeed))
			default:
				h = xhash.Combine(h, xhash.U64(uint64(c.I[r]), fpSeed))
			}
			if c.Null != nil && c.Null[r] {
				h = xhash.Combine(h, xhash.String("null", fpSeed))
			}
		}
	}
	return fpNz(h)
}

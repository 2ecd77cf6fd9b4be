package data

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

var vecTestSchema = NewSchema(
	ColumnDef{"k", Int64},
	ColumnDef{"v", Float64},
	ColumnDef{"s", String},
	ColumnDef{"d", Date},
	ColumnDef{"n", Int64},
)

// randVecBatch builds a random batch over vecTestSchema: random row count,
// sometimes a null mask, sometimes an ascending selection vector.
func randVecBatch(rng *rand.Rand) *Batch {
	n := 1 + rng.Intn(150)
	b := NewBatch(vecTestSchema, n)
	for i := 0; i < n; i++ {
		b.Cols[0].I = append(b.Cols[0].I, rng.Int63n(1000)-200)
		b.Cols[1].F = append(b.Cols[1].F, rng.Float64()*1e4-5e3)
		b.Cols[2].S = append(b.Cols[2].S, fmt.Sprintf("str-%d", rng.Intn(100)))
		b.Cols[3].I = append(b.Cols[3].I, DateOf(1992+rng.Intn(7), 1+rng.Intn(12), 1+rng.Intn(28)))
		b.Cols[4].I = append(b.Cols[4].I, rng.Int63n(50))
	}
	b.SetLen(n)
	if rng.Intn(2) == 0 {
		null := make([]bool, n)
		for i := range null {
			null[i] = rng.Intn(4) == 0
		}
		b.Cols[4].Null = null
	}
	if rng.Intn(2) == 0 {
		sel := make([]int32, 0, n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) != 0 {
				sel = append(sel, int32(i))
			}
		}
		b.Sel = sel
	}
	return b
}

// TestEncodeAllDecodeFieldsRoundTrip: every live row encoded by EncodeAll
// decodes back through DecodeFields to its values, NULL marks included, on
// schemas with no, one and three string fields — the three string bodies
// placed one after another, each where the previous one ends.
func TestEncodeAllDecodeFieldsRoundTrip(t *testing.T) {
	for _, types := range [][]Type{
		{Int64, Float64, Date, Bool},
		{Int64, String, Float64},
		{String, Int64, String, Float64, Date, String, Int64, Bool, Int64},
	} {
		defs := make([]ColumnDef, len(types))
		for f, typ := range types {
			defs[f] = ColumnDef{Name: fmt.Sprintf("c%d", f), Type: typ}
		}
		schema := NewSchema(defs...)
		rc := NewRowCodec(types)
		rng := rand.New(rand.NewSource(int64(len(types))))
		for round := 0; round < 50; round++ {
			n := 1 + rng.Intn(300)
			b := NewBatch(schema, n)
			for f, typ := range types {
				c := &b.Cols[f]
				for i := 0; i < n; i++ {
					switch typ {
					case String:
						c.S = append(c.S, strings.Repeat("x", rng.Intn(40))+fmt.Sprint(i))
					case Float64:
						c.F = append(c.F, rng.NormFloat64())
					default:
						c.I = append(c.I, rng.Int63()-rng.Int63())
					}
				}
				if rng.Intn(2) == 0 {
					c.Null = make([]bool, n)
					for i := range c.Null {
						c.Null[i] = rng.Intn(3) == 0
					}
				}
			}
			b.SetLen(n)
			var sel []int32
			if rng.Intn(2) == 0 {
				for i := 0; i < n; i++ {
					if rng.Intn(3) != 0 {
						sel = append(sel, int32(i))
					}
				}
			}
			sizes := rc.SizeAll(b, sel, nil)
			dsts := make([][]byte, len(sizes))
			for i, size := range sizes {
				dsts[i] = make([]byte, size)
			}
			rc.EncodeAll(dsts, b, sel)
			cols := make([]Column, len(types))
			for f := range cols {
				cols[f].Type = types[f]
			}
			var arena ByteArena
			rc.DecodeFields(cols, dsts, &arena)
			for i := range dsts {
				r := i
				if sel != nil {
					r = int(sel[i])
				}
				for f, typ := range types {
					in, out := &b.Cols[f], &cols[f]
					if in.Null != nil && in.Null[r] {
						if out.Null == nil || !out.Null[i] {
							t.Fatalf("%v row %d field %d: NULL lost", types, r, f)
						}
						continue
					}
					if out.Null != nil && out.Null[i] {
						t.Fatalf("%v row %d field %d: NULL where there was none", types, r, f)
					}
					switch typ {
					case String:
						if out.S[i] != in.S[r] {
							t.Fatalf("%v row %d field %d: %q, want %q", types, r, f, out.S[i], in.S[r])
						}
					case Float64:
						if out.F[i] != in.F[r] {
							t.Fatalf("%v row %d field %d: %v, want %v", types, r, f, out.F[i], in.F[r])
						}
					default:
						if out.I[i] != in.I[r] {
							t.Fatalf("%v row %d field %d: %d, want %d", types, r, f, out.I[i], in.I[r])
						}
					}
				}
			}
		}
	}
}

// TestHashColumnsMatchesHashRow: the batch hash kernel must be
// bit-identical to the per-row hash for every key-column combination —
// partition routing depends on it (a spilled build tuple and its probe
// row must land in the same partition whichever path hashed them).
func TestHashColumnsMatchesHashRow(t *testing.T) {
	keySets := [][]int{{0}, {1}, {2}, {4}, {0, 2}, {0, 1, 2, 3, 4}}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randVecBatch(rng)
		for _, keys := range keySets {
			hs := HashColumns(b, b.Sel, keys, nil)
			if len(hs) != b.Rows() {
				t.Logf("seed %d keys %v: got %d hashes, want %d", seed, keys, len(hs), b.Rows())
				return false
			}
			for i := 0; i < b.Rows(); i++ {
				if want := HashRow(b, keys, b.Row(i)); hs[i] != want {
					t.Logf("seed %d keys %v row %d: HashColumns %x, HashRow %x", seed, keys, i, hs[i], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSizeAllEncodeAllMatchScalar: batch sizing and encoding must produce
// byte-identical tuples to the row format written one row at a time
// (encodeRow).
func TestSizeAllEncodeAllMatchScalar(t *testing.T) {
	rc := NewRowCodec(vecTestSchema.Types())
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randVecBatch(rng)
		sizes := rc.SizeAll(b, b.Sel, nil)
		if len(sizes) != b.Rows() {
			t.Logf("seed %d: SizeAll returned %d sizes, want %d", seed, len(sizes), b.Rows())
			return false
		}
		dsts := make([][]byte, b.Rows())
		for i, sz := range sizes {
			if want := len(encodeRow(rc, b, b.Row(i))); sz != want {
				t.Logf("seed %d row %d: SizeAll %d, row size %d", seed, i, sz, want)
				return false
			}
			dsts[i] = make([]byte, sz)
		}
		rc.EncodeAll(dsts, b, b.Sel)
		for i := range dsts {
			want := encodeRow(rc, b, b.Row(i))
			if !bytes.Equal(dsts[i], want) {
				t.Logf("seed %d row %d: EncodeAll %x, encodeRow %x", seed, i, dsts[i], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func benchVecBatch(n int) *Batch {
	rng := rand.New(rand.NewSource(1))
	b := NewBatch(vecTestSchema, n)
	for i := 0; i < n; i++ {
		b.Cols[0].I = append(b.Cols[0].I, rng.Int63n(1000))
		b.Cols[1].F = append(b.Cols[1].F, rng.Float64())
		b.Cols[2].S = append(b.Cols[2].S, fmt.Sprintf("str-%d", rng.Intn(100)))
		b.Cols[3].I = append(b.Cols[3].I, DateOf(1995, 1, 1+rng.Intn(28)))
		b.Cols[4].I = append(b.Cols[4].I, rng.Int63n(50))
	}
	b.SetLen(n)
	return b
}

func BenchmarkHashRow(b *testing.B) {
	batch := benchVecBatch(4096)
	keys := []int{0, 2}
	out := make([]uint64, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 4096; r++ {
			out[r] = HashRow(batch, keys, r)
		}
	}
}

func BenchmarkHashColumns(b *testing.B) {
	batch := benchVecBatch(4096)
	keys := []int{0, 2}
	var out []uint64
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = HashColumns(batch, nil, keys, out[:0])
	}
}

func BenchmarkEncodeAll(b *testing.B) {
	batch := benchVecBatch(4096)
	rc := NewRowCodec(vecTestSchema.Types())
	var sizes []int
	var enc []byte
	var dsts [][]byte
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sizes = rc.SizeAll(batch, nil, sizes[:0])
		total := 0
		for _, s := range sizes {
			total += s
		}
		if cap(enc) < total {
			enc = make([]byte, total)
		}
		enc = enc[:total]
		dsts = dsts[:0]
		off := 0
		for _, s := range sizes {
			dsts = append(dsts, enc[off:off+s:off+s])
			off += s
		}
		rc.EncodeAll(dsts, batch, nil)
	}
}

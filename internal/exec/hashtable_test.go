package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/pages"
)

// joinBuildSchema is the build tuple of the table tests and benchmarks: two
// integers and a string.
var joinBuildSchema = data.NewSchema(
	data.ColumnDef{Name: "k", Type: data.Int64},
	data.ColumnDef{Name: "v", Type: data.Int64},
	data.ColumnDef{Name: "s", Type: data.String},
)

// joinBuildBatch returns one build row per key.
func joinBuildBatch(keys []int64) *data.Batch {
	b := data.NewBatch(joinBuildSchema, len(keys))
	for i, k := range keys {
		b.Cols[0].I = append(b.Cols[0].I, k)
		b.Cols[1].I = append(b.Cols[1].I, int64(i))
		b.Cols[2].S = append(b.Cols[2].S, fmt.Sprintf("payload-%07d", i))
	}
	b.SetLen(len(keys))
	return b
}

// tuplePages encodes the rows of b onto pages of the given size, as a build
// phase that neither partitions nor spills leaves them.
func tuplePages(rc *data.RowCodec, b *data.Batch, pageSize int) []*pages.Page {
	pgs := []*pages.Page{pages.New(pageSize)}
	for r := 0; r < b.Len(); r++ {
		tuple := encodeRow(rc, b, r)
		if _, ok := pgs[len(pgs)-1].Append(tuple); !ok {
			pgs = append(pgs, pages.New(pageSize))
			pgs[len(pgs)-1].Append(tuple)
		}
	}
	return pgs
}

// encodeRow returns row r of b encoded on its own.
func encodeRow(rc *data.RowCodec, b *data.Batch, r int) []byte {
	sel := []int32{int32(r)}
	dst := [][]byte{make([]byte, rc.SizeAll(b, sel, nil)[0])}
	rc.EncodeAll(dst, b, sel)
	return dst[0]
}

// keyBatch returns a one-column probe batch of the given keys.
func keyBatch(keys []int64) *data.Batch {
	b := data.NewBatch(data.NewSchema(data.ColumnDef{Name: "pk", Type: data.Int64}), len(keys))
	b.Cols[0].I = append(b.Cols[0].I, keys...)
	b.SetLen(len(keys))
	return b
}

// TestJoinTableFindsEveryKey is the table-level property: whatever the
// directory's load — from half a tuple per bucket to every tuple in one run —
// and whatever the duplication, the tag filter and the entry's hash bits never
// drop a true match: every inserted key is found once per tuple that has it,
// with that tuple, and a key that was not inserted finds nothing.
func TestJoinTableFindsEveryKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<14)
	keySets := map[string]func(i int) int64{
		"unique": func(i int) int64 { return int64(i) * 3 },
		"zipf":   func(int) int64 { return int64(zipf.Uint64()) * 3 },
		"equal":  func(int) int64 { return 42 },
	}
	rc := data.NewRowCodec(joinBuildSchema.Types())
	for name, gen := range keySets {
		for _, n := range []int{0, 1, 100, 3000} {
			keys := make([]int64, n)
			want := map[int64]int{}
			for i := range keys {
				keys[i] = gen(i)
				want[keys[i]]++
			}
			pgs := tuplePages(rc, joinBuildBatch(keys), 8<<10)
			// The probe: every inserted key once, and as many keys that are not.
			var probeKeys []int64
			for k := range want {
				probeKeys = append(probeKeys, k, k+1)
			}
			probe := keyBatch(probeKeys)
			for _, distinct := range []int64{0, 1, int64(n) / 64, int64(n)} {
				for _, workers := range []int{1, 3} {
					ht, err := buildJoinTable(pgs, rc, []int{0}, 0, distinct, workers)
					if err != nil {
						t.Fatal(err)
					}
					if size := 8 * (len(ht.dir) + len(ht.entries)); n >= 100 && size > 16*n+16 {
						t.Errorf("%s n=%d distinct=%d: %d directory bytes, over 16 per tuple", name, n, distinct, size)
					}
					for _, intKeys := range []bool{true, false} {
						pr := joinProbe{cols: []int{0}, intKeys: intKeys}
						pr.start(ht, probe)
						got := map[int64]int{}
						for m := pr.fill(1000); m > 0; m = pr.fill(1000) {
							for i, r := range pr.rows {
								k := probe.Cols[0].I[r]
								if rc.Int(pr.tups[i], 0) != k {
									t.Fatalf("%s: probe key %d matched a tuple with key %d", name, k, rc.Int(pr.tups[i], 0))
								}
								got[k]++
							}
						}
						if len(got) != len(want) {
							t.Fatalf("%s n=%d distinct=%d workers=%d: %d keys matched, want %d", name, n, distinct, workers, len(got), len(want))
						}
						for k, c := range want {
							if got[k] != c {
								t.Fatalf("%s n=%d distinct=%d workers=%d: key %d matched %d tuples, want %d", name, n, distinct, workers, k, got[k], c)
							}
						}
						pr.start(ht, probe)
						pr.exists()
						for i, k := range probeKeys {
							if pr.matched[i] != (want[k] > 0) {
								t.Fatalf("%s: exists(%d) = %v", name, k, pr.matched[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestJoinTableSkipsPartitionBits: a partition's hashes share their leading
// bits; a table told so spreads them over all its buckets instead of the one
// range those bits select.
func TestJoinTableSkipsPartitionBits(t *testing.T) {
	rc := data.NewRowCodec(joinBuildSchema.Types())
	var keys []int64
	for k := int64(0); len(keys) < 4096; k++ {
		// Partition 5 of 64: the hashes whose six leading bits are 000101.
		if data.HashRow(keyBatch([]int64{k}), []int{0}, 0)>>58 == 5 {
			keys = append(keys, k)
		}
	}
	ht, err := buildJoinTable(tuplePages(rc, joinBuildBatch(keys), 8<<10), rc, []int{0}, 6, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	used := 0
	for b := 1; b < len(ht.dir); b++ {
		if ht.dir[b]>>16 != ht.dir[b-1]>>16 {
			used++
		}
	}
	if buckets := len(ht.dir) - 1; used < buckets/2 {
		t.Fatalf("%d tuples of one partition fill %d of %d buckets", len(keys), used, buckets)
	}
	pr := joinProbe{cols: []int{0}, intKeys: true}
	pr.start(ht, keyBatch(keys))
	if n := pr.fill(len(keys) + 1); n != len(keys) {
		t.Fatalf("%d of %d keys found", n, len(keys))
	}
}

// --- benchmarks ---

const joinBenchTuples = 600000

// joinBenchKeys returns the build keys of a benchmark: 0..n-1 once each, or n
// draws from a Zipf distribution over the same domain.
func joinBenchKeys(n int, zipfS float64) []int64 {
	keys := make([]int64, n)
	if zipfS == 0 {
		for i := range keys {
			keys[i] = int64(i)
		}
		return keys
	}
	z := rand.NewZipf(rand.New(rand.NewSource(1)), zipfS, 1, uint64(n-1))
	for i := range keys {
		keys[i] = int64(z.Uint64())
	}
	return keys
}

// joinBenchProbe returns 64 probe batches of 1024 rows (key, price) with keys
// drawn uniformly from [lo, lo+n).
func joinBenchProbe(lo, n int64) []*data.Batch {
	schema := data.NewSchema(
		data.ColumnDef{Name: "pk", Type: data.Int64},
		data.ColumnDef{Name: "price", Type: data.Float64},
	)
	rng := rand.New(rand.NewSource(2))
	out := make([]*data.Batch, 64)
	for i := range out {
		b := data.NewBatch(schema, 1024)
		for r := 0; r < 1024; r++ {
			b.Cols[0].I = append(b.Cols[0].I, lo+rng.Int63n(n))
			b.Cols[1].F = append(b.Cols[1].F, float64(r))
		}
		b.SetLen(1024)
		out[i] = b
	}
	return out
}

func BenchmarkJoinBuild(b *testing.B) {
	rc := data.NewRowCodec(joinBuildSchema.Types())
	pgs := tuplePages(rc, joinBuildBatch(joinBenchKeys(joinBenchTuples, 0)), 64<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildJoinTable(pgs, rc, []int{0}, 0, joinBenchTuples, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/joinBenchTuples, "ns/build-tuple")
}

// benchJoinProbe probes one 1024-row batch per iteration against a
// 600 k-tuple table and emits its matches.
func benchJoinProbe(b *testing.B, zipfS float64, probeLo int64) {
	rc := data.NewRowCodec(joinBuildSchema.Types())
	keys := joinBenchKeys(joinBenchTuples, zipfS)
	distinct := map[int64]bool{}
	for _, k := range keys {
		distinct[k] = true
	}
	ht, err := buildJoinTable(tuplePages(rc, joinBuildBatch(keys), 64<<10), rc, []int{0}, 0, int64(len(distinct)), 2)
	if err != nil {
		b.Fatal(err)
	}
	probes := joinBenchProbe(probeLo, joinBenchTuples)
	nProbe := probes[0].Schema.Len()
	out := data.NewBatch(probes[0].Schema.Concat(joinBuildSchema), emitRows)
	pr := joinProbe{cols: []int{0}, intKeys: true}
	var arena data.ByteArena
	one := func(in *data.Batch) (matches int) {
		pr.start(ht, in)
		for n := pr.fill(emitRows); n > 0; n = pr.fill(emitRows) {
			gatherCols(out.Cols[:nProbe], in.Cols, pr.rows)
			rc.DecodeFields(out.Cols[nProbe:], pr.tups, &arena)
			matches += n
		}
		return matches
	}
	for _, in := range probes {
		one(in)
	}
	b.ReportAllocs()
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i++ {
		matches += one(probes[i%len(probes)])
	}
	rows := b.N * probes[0].Len()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/probe-row")
	b.ReportMetric(float64(matches)/float64(rows), "matches/probe-row")
}

func BenchmarkJoinProbeUnique(b *testing.B) { benchJoinProbe(b, 0, 0) }
func BenchmarkJoinProbeZipf(b *testing.B)   { benchJoinProbe(b, 1.2, 0) }
func BenchmarkJoinProbeMiss(b *testing.B)   { benchJoinProbe(b, 0, joinBenchTuples) }

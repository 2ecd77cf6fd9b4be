//go:build !race

// Allocation-count regression tests for the operator hot paths. Excluded
// under -race: the race runtime's bookkeeping allocations make
// testing.AllocsPerRun meaningless.

package exec

import (
	"fmt"
	"testing"

	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/pages"
)

// evalBatch builds a 1024-row batch for expression-kernel measurements.
func evalBatch() *data.Batch {
	schema := data.NewSchema(
		data.ColumnDef{Name: "i", Type: data.Int64},
		data.ColumnDef{Name: "f", Type: data.Float64},
		data.ColumnDef{Name: "s", Type: data.String},
	)
	b := data.NewBatch(schema, 1024)
	for i := 0; i < 1024; i++ {
		b.Cols[0].I = append(b.Cols[0].I, int64(i%97))
		b.Cols[1].F = append(b.Cols[1].F, float64(i)*0.25)
		b.Cols[2].S = append(b.Cols[2].S, "MEDIUM POLISHED COPPER")
	}
	b.SetLen(1024)
	return b
}

// TestAllocsExprChains pins the fused expression entry points at amortized
// zero allocations per batch: intermediate vectors come from slice pools,
// so after warmup a 1024-row evaluation must not touch the heap.
func TestAllocsExprChains(t *testing.T) {
	b := evalBatch()
	s := b.Schema
	filter := And(
		Cmp(">=", Col(s, "i"), ConstInt(10)),
		Cmp("<", Col(s, "f"), ConstFloat(200)),
	)
	arith := Mul(Col(s, "f"), Sub(ConstFloat(1), ConstFloat(0.1)))

	selBuf := make([]int32, 1024)
	outF := make([]float64, 1024)
	// Warm the slice pools.
	for i := 0; i < 8; i++ {
		_ = filter.EvalBool(b, nil, selBuf[:0])
		arith.EvalF(b, nil, outF)
	}
	if got := testing.AllocsPerRun(100, func() {
		_ = filter.EvalBool(b, nil, selBuf[:0])
	}); got > 0.1 {
		t.Errorf("EvalBool fused filter: %.3f allocs/run, want ~0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		arith.EvalF(b, nil, outF)
	}); got > 0.1 {
		t.Errorf("EvalF fused arithmetic: %.3f allocs/run, want ~0", got)
	}
}

// TestAllocsJoinProbeEmit pins the probe-side emit path: hashing a batch
// row, probing the table, and appending the matching build tuple's columns
// through an arena must not allocate per row in steady state.
func TestAllocsJoinProbeEmit(t *testing.T) {
	buildSchema := data.NewSchema(
		data.ColumnDef{Name: "ckey", Type: data.Int64},
		data.ColumnDef{Name: "name", Type: data.String},
	)
	rc := data.NewRowCodec(buildSchema.Types())
	src := data.NewBatch(buildSchema, 256)
	for i := 0; i < 256; i++ {
		src.Cols[0].I = append(src.Cols[0].I, int64(i))
		src.Cols[1].S = append(src.Cols[1].S, fmt.Sprintf("cust-name-%d", i))
	}
	src.SetLen(256)

	// Materialize the build rows onto pages, as the join build phase does.
	pg := pages.New(64 << 10)
	for r := 0; r < src.Len(); r++ {
		dst, ok := pg.Append(make([]byte, rc.Size(src, r)))
		if !ok {
			t.Fatal("page overflow")
		}
		rc.Encode(dst, src, r)
	}
	ht, err := buildHashTable([]*pages.Page{pg}, rc, []int{0}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	probe := evalBatch()
	out := data.NewBatch(buildSchema, 4096)
	var arena data.ByteArena
	emit := func() {
		out.Reset()
		for r := 0; r < probe.Len(); r++ {
			h := data.HashRow(probe, []int{0}, r)
			ht.probeRow(h, probe, []int{0}, r, func(tuple []byte) {
				appendTupleCols(out, 0, rc, tuple, buildSchema.Len(), &arena)
				out.SetLen(out.Len() + 1)
			})
		}
	}
	for i := 0; i < 8; i++ {
		emit()
	}
	got := testing.AllocsPerRun(50, emit)
	// 1024 probe rows per run: allow only amortized arena-chunk noise.
	if got > 1 {
		t.Errorf("join probe emit: %.2f allocs/run for 1024 rows, want <= 1", got)
	}
}

func BenchmarkAllocBatchPoolCycle(b *testing.B) {
	p := data.NewBatchPool(evalBatch().Schema)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt := p.Get()
		bt.Release()
	}
}

// TestAllocsBatchPoolCycle pins the per-fill cost of the batch lease:
// Get/Release on a warmed pool must not allocate.
func TestAllocsBatchPoolCycle(t *testing.T) {
	p := data.NewBatchPool(evalBatch().Schema)
	for i := 0; i < 8; i++ {
		b := p.Get()
		b.Release()
	}
	got := testing.AllocsPerRun(100, func() {
		b := p.Get()
		b.Release()
	})
	if got > 0.1 {
		t.Errorf("BatchPool Get/Release: %.3f allocs/run, want ~0", got)
	}
}

// TestAllocsAggMergeExistingGroup pins the phase-2 hit path: folding a
// partial tuple into a group the table already holds — hash in hand, key
// compared in place, state in flat arrays — must not touch the heap, string
// keys and string Min/Max included.
func TestAllocsAggMergeExistingGroup(t *testing.T) {
	in := &ValuesNode{Batch: evalBatch()}
	a := NewAgg(in, []string{"i", "s"}, []AggSpec{
		{Func: CountStar, As: "n"},
		{Func: Avg, Col: "f", As: "avg"},
		{Func: Min, Col: "s", As: "min_s"},
		{Func: Max, Col: "f", As: "max_f"},
	})
	pb := data.NewBatch(a.partial, 97)
	for k := 0; k < 97; k++ {
		pb.Cols[0].I = append(pb.Cols[0].I, int64(k))
		pb.Cols[1].S = append(pb.Cols[1].S, "MEDIUM POLISHED COPPER")
		pb.Cols[2].I = append(pb.Cols[2].I, 1)
		pb.Cols[3].F = append(pb.Cols[3].F, float64(k))
		pb.Cols[4].I = append(pb.Cols[4].I, 1)
		pb.Cols[5].S = append(pb.Cols[5].S, "MEDIUM POLISHED COPPER")
		pb.Cols[6].F = append(pb.Cols[6].F, float64(k))
	}
	pb.SetLen(97)
	tuples := partialTuples(a, pb)
	hashes := make([]uint64, len(tuples))
	tbl := &groupTable{a: a, hint: len(tuples)}
	for i, tuple := range tuples {
		hashes[i] = a.rc.HashTuple(tuple, a.keyFields)
		tbl.merge(tuple, hashes[i])
	}
	got := testing.AllocsPerRun(100, func() {
		for i, tuple := range tuples {
			tbl.merge(tuple, hashes[i])
		}
	})
	if got != 0 {
		t.Errorf("merging into existing groups: %.2f allocs per %d tuples, want 0", got, len(tuples))
	}
	if tbl.n != len(tuples) {
		t.Fatalf("%d groups, want %d", tbl.n, len(tuples))
	}
}

//go:build !race

// Allocation-count regression tests for the operator hot paths. Excluded
// under -race: the race runtime's bookkeeping allocations make
// testing.AllocsPerRun meaningless.

package exec

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/hll"
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
// so after warmup a 1024-row evaluation must not touch the heap. The shapes
// above a join are included: Q19's Or of Ands, Q12's and Q14's CASEs, and
// Q22's IN over SUBSTRING.
func TestAllocsExprChains(t *testing.T) {
	b := evalBatch()
	s := b.Schema
	i, f, str := Col(s, "i"), Col(s, "f"), Col(s, "s")
	branch := func(lo int64, word string) Expr {
		return And(Cmp(">=", i, ConstInt(lo)), InStr(str, word, "MEDIUM POLISHED COPPER"), Cmp("<", f, ConstFloat(200)))
	}
	filter := And(Cmp(">=", i, ConstInt(10)), Cmp("<", f, ConstFloat(200)))
	arith := Mul(f, Sub(ConstFloat(1), ConstFloat(0.1)))
	q19 := Or(branch(90, "SM CASE"), branch(40, "MED BAG"), branch(20, "LG BOX"))
	q12 := Case(InStr(str, "1-URGENT", "MEDIUM POLISHED COPPER"), ConstInt(1), ConstInt(0))
	q14 := Case(Like(str, "MEDIUM%"), Mul(f, Sub(ConstFloat(1), f)), ConstFloat(0))
	q22 := InStr(Substr(str, 1, 2), "13", "ME")

	selBuf := make([]int32, 1024)
	outI := make([]int64, 1024)
	outF := make([]float64, 1024)
	cases := []struct {
		name string
		eval func()
	}{
		{"EvalBool fused filter", func() { filter.EvalBool(b, nil, selBuf[:0]) }},
		{"EvalF fused arithmetic", func() { arith.EvalF(b, nil, outF) }},
		{"EvalBool Q19 Or of Ands", func() { q19.EvalBool(b, nil, selBuf[:0]) }},
		{"EvalI Q12 CASE over IN", func() { q12.EvalI(b, nil, outI) }},
		{"EvalF Q14 CASE over LIKE", func() { q14.EvalF(b, nil, outF) }},
		{"EvalBool Q22 IN over SUBSTRING", func() { q22.EvalBool(b, nil, selBuf[:0]) }},
	}
	for _, c := range cases {
		// Warm the slice pools.
		for i := 0; i < 8; i++ {
			c.eval()
		}
		if got := testing.AllocsPerRun(100, c.eval); got > 0.1 {
			t.Errorf("%s: %.3f allocs/run, want ~0", c.name, got)
		}
	}
}

// TestAllocsJoinProbeEmit pins the probe-side emit path: hashing a batch,
// filtering it through the directory, walking the runs and emitting the
// matches by column — probe columns gathered, build fields decoded through an
// arena — must not allocate in steady state.
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
	ht, err := buildJoinTable(tuplePages(rc, src, 64<<10), rc, []int{0}, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	probe := evalBatch()
	nProbe := probe.Schema.Len()
	out := data.NewBatch(probe.Schema.Concat(buildSchema), probe.Len())
	pr := joinProbe{cols: []int{0}, intKeys: true}
	var arena data.ByteArena
	rows := 0
	emit := func() {
		pr.start(ht, probe)
		for n := pr.fill(emitRows); n > 0; n = pr.fill(emitRows) {
			gatherCols(out.Cols[:nProbe], probe.Cols, pr.rows)
			rc.DecodeFields(out.Cols[nProbe:], pr.tups, &arena)
			rows = n
		}
	}
	for i := 0; i < 8; i++ {
		emit()
	}
	if rows != probe.Len() {
		t.Fatalf("probe emitted %d rows, want %d", rows, probe.Len())
	}
	// 1024 probe rows per run; a 64 KiB arena chunk lasts several runs, which
	// AllocsPerRun's integer average rounds away.
	if got := testing.AllocsPerRun(50, emit); got != 0 {
		t.Errorf("join probe + emit: %.0f allocs/run for 1024 rows, want 0", got)
	}
}

// TestJoinSketchBytesIgnorePartitions: a join keeps one 4 KiB sketch per
// worker. The bytes it allocates must not grow with the partition count (a
// sketch per worker and partition touched was 256 KiB a worker at 64
// partitions, from a few hundred build rows on).
func TestJoinSketchBytesIgnorePartitions(t *testing.T) {
	joinBytes := func(parts int) uint64 {
		build, probe := custTable(1000), ordersTable(1000)
		run := func() uint64 {
			// One worker and small pages: which worker gets to emit, and
			// whether a page comes from the recycler or the heap, must not
			// drown what is measured.
			ctx := testCtx(1)
			ctx.Partitions, ctx.PageSize = parts, 4<<10
			j := NewJoin(Inner, NewScan(build), []string{"ckey"}, NewScan(probe, "okey", "cust"), []string{"cust"})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := Drain(ctx, mustRun(t, ctx, j), nil); err != nil {
				t.Fatal(err)
			}
			ctx.Close()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		least := run()
		for i := 0; i < 3; i++ {
			least = min(least, run())
		}
		return least
	}
	few, many := joinBytes(2), joinBytes(64)
	if many > few+64<<10 {
		t.Errorf("a join over 64 partitions allocated %d bytes, over 2 partitions %d: the difference must stay under 64 KiB", many, few)
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

// TestAllocsAggMergeExistingGroup pins the phase-2 hit path: merging a run of
// partial tuples whose groups the table already holds — hashes in hand, keys
// compared in place, state in flat arrays, each stage on the worker's own
// staging arrays — must not touch the heap, string keys and string Min/Max
// included.
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
	for i, tuple := range tuples {
		hashes[i] = a.rc.HashTuple(tuple, a.keyFields)
	}
	tbl := &groupTable{a: a, hint: len(tuples)}
	var st mergeStage
	tbl.mergeRun(tuples, hashes, &st)
	got := testing.AllocsPerRun(100, func() {
		tbl.mergeRun(tuples, hashes, &st)
	})
	if got != 0 {
		t.Errorf("merging into existing groups: %.2f allocs per run of %d tuples, want 0", got, len(tuples))
	}
	if tbl.n != len(tuples) {
		t.Fatalf("%d groups, want %d", tbl.n, len(tuples))
	}
}

// TestAllocsAggMergeNewGroups pins the phase-2 miss path: merging a run of
// partial tuples that all open new groups into a table whose arrays already
// hold that many — slots sized by the hint, keys copied and states zeroed in
// one extension each — must not touch the heap, with a string key or a
// fixed-width one.
func TestAllocsAggMergeNewGroups(t *testing.T) {
	for _, groupBy := range [][]string{{"i", "s"}, {"i"}} {
		a := NewAgg(&ValuesNode{Batch: evalBatch()}, groupBy, []AggSpec{
			{Func: CountStar, As: "n"},
			{Func: Avg, Col: "f", As: "avg"},
			{Func: Min, Col: "s", As: "min_s"},
			{Func: Max, Col: "f", As: "max_f"},
		})
		pb := data.NewBatch(a.partial, 97)
		for k := 0; k < 97; k++ {
			row := []any{int64(k), fmt.Sprint("MEDIUM POLISHED COPPER #", k), int64(1), float64(k), int64(1), "MEDIUM POLISHED COPPER", float64(k)}
			if len(groupBy) == 1 {
				row = append(row[:1], row[2:]...)
			}
			for f, v := range row {
				c := &pb.Cols[f]
				switch v := v.(type) {
				case int64:
					c.I = append(c.I, v)
				case float64:
					c.F = append(c.F, v)
				case string:
					c.S = append(c.S, v)
				}
			}
		}
		pb.SetLen(97)
		tuples := partialTuples(a, pb)
		hashes := make([]uint64, len(tuples))
		for i, tuple := range tuples {
			hashes[i] = a.rc.HashTuple(tuple, a.keyFields)
		}
		tbl := &groupTable{a: a, hint: len(tuples)}
		var st mergeStage
		got := testing.AllocsPerRun(100, func() {
			tbl.reset()
			tbl.mergeRun(tuples, hashes, &st)
		})
		if got != 0 {
			t.Errorf("by %v: opening %d new groups: %.2f allocs per run, want 0", groupBy, len(tuples), got)
		}
		if tbl.n != len(tuples) {
			t.Fatalf("by %v: %d groups, want %d", groupBy, tbl.n, len(tuples))
		}
	}
}

// TestAllocsAggPreAggExistingGroups pins the phase-1 hit path: consuming a
// batch whose keys are all in the local table — hashed, resolved and folded a
// column at a time, NULL inputs, a string key and string Min/Max included —
// must not touch the heap.
func TestAllocsAggPreAggExistingGroups(t *testing.T) {
	b := evalBatch()
	b.Cols[1].Null = make([]bool, b.Len())
	for r := 0; r < b.Len(); r += 7 {
		b.Cols[1].Null[r] = true
	}
	for r := 0; r < b.Len(); r += 3 {
		b.Sel = append(b.Sel, int32(r))
	}
	a := NewAgg(&ValuesNode{Batch: b}, []string{"i", "s"}, []AggSpec{
		{Func: CountStar, As: "n"},
		{Func: Count, Col: "f", As: "cnt"},
		{Func: Sum, Col: "i", As: "sum_i"},
		{Func: Avg, Col: "f", As: "avg"},
		{Func: Min, Col: "s", As: "min_s"},
		{Func: Max, Col: "f", As: "max_f"},
	})
	aw := newAggWorker(a, []int{0, 2}, core.NewShared((&Ctx{}).coreConfig()).NewBuffer(), &hll.Sketch{}, true)
	aw.consume(b)
	opened := aw.opened
	got := testing.AllocsPerRun(100, func() {
		aw.consume(b)
	})
	if got != 0 {
		t.Errorf("pre-aggregating into existing groups: %.2f allocs per batch of %d rows, want 0", got, b.Rows())
	}
	if aw.opened != opened || !aw.preAgg {
		t.Fatalf("groups opened %d → %d, pre-aggregation on = %v: the keys were not all in the table", opened, aw.opened, aw.preAgg)
	}
}

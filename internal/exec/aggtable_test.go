package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/hll"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/pages"
)

// batchesNode hands a fixed list of batches to whichever worker asks next,
// NULL marks and selection vectors included (in-memory tables carry neither).
type batchesNode struct {
	schema  *data.Schema
	batches []*data.Batch
}

func (n *batchesNode) Schema() *data.Schema { return n.schema }

func (n *batchesNode) Run(*Ctx) (*Stream, error) {
	var cursor atomic.Int64
	return &Stream{
		schema: n.schema,
		next: func(w int, b *data.Batch) (int, error) {
			i := int(cursor.Add(1) - 1)
			if i >= len(n.batches) {
				return 0, nil
			}
			src := n.batches[i]
			b.Reset()
			for r := 0; r < src.Len(); r++ {
				b.AppendRowFrom(src, r)
			}
			b.Sel = src.Sel
			return src.Rows(), nil
		},
	}, nil
}

var aggPropSchema = data.NewSchema(
	data.ColumnDef{Name: "ki", Type: data.Int64},
	data.ColumnDef{Name: "kf", Type: data.Float64},
	data.ColumnDef{Name: "ks", Type: data.String},
	data.ColumnDef{Name: "kd", Type: data.Date},
	data.ColumnDef{Name: "vi", Type: data.Int64},
	data.ColumnDef{Name: "vf", Type: data.Float64},
	data.ColumnDef{Name: "vs", Type: data.String},
	data.ColumnDef{Name: "ni", Type: data.Int64},
	data.ColumnDef{Name: "ns", Type: data.String},
)

// aggPropMaskless are the key columns that every third batch leaves without
// a null mask, so that tables whose groups have NULL keys also meet keys
// from batches that carry no marks. ni and ns are second integer and string
// keys with their own values.
var aggPropMaskless = map[string]bool{"ki": true, "kd": true, "ni": true, "ns": true}

// aggPropInput draws rows whose keys take `card` values per column. A tenth
// of every column is NULL (but see aggPropMaskless), with garbage left under
// the mark; one key value in eight never sees a non-NULL vs or
// vf, so its Min/Max stay unseen.
// Floats are multiples of 1/4, so sums are exact in any order.
func aggPropInput(rng *rand.Rand, rows, card int) *batchesNode {
	return aggKeyedInput(rng, rows, func(int) int { return rng.Intn(card) })
}

// aggKeyedInput is aggPropInput with row r's key number drawn by key(r).
func aggKeyedInput(rng *rand.Rand, rows int, key func(r int) int) *batchesNode {
	n := &batchesNode{schema: aggPropSchema}
	for done := 0; done < rows; {
		size := min(1+rng.Intn(1500), rows-done)
		b := data.NewBatch(aggPropSchema, size)
		maskless := len(n.batches)%3 == 2
		for c, def := range aggPropSchema.Cols {
			if !(maskless && aggPropMaskless[def.Name]) {
				b.Cols[c].Null = make([]bool, size)
			}
		}
		for r := 0; r < size; r++ {
			k := key(done + r)
			b.Cols[0].I = append(b.Cols[0].I, int64(k)*7919-3)
			b.Cols[1].F = append(b.Cols[1].F, float64(k%97)*0.25-5)
			b.Cols[2].S = append(b.Cols[2].S, strings.Repeat("k", k%5)+fmt.Sprint(k%211))
			b.Cols[3].I = append(b.Cols[3].I, int64(9000+k%31))
			b.Cols[4].I = append(b.Cols[4].I, int64(rng.Intn(2000)-1000))
			b.Cols[5].F = append(b.Cols[5].F, float64(rng.Intn(4000)-2000)*0.25)
			b.Cols[6].S = append(b.Cols[6].S, fmt.Sprintf("v%03d", rng.Intn(500)))
			b.Cols[7].I = append(b.Cols[7].I, int64(k)*31+7)
			b.Cols[8].S = append(b.Cols[8].S, fmt.Sprint("n", k))
			for c := range b.Cols {
				if b.Cols[c].Null != nil {
					b.Cols[c].Null[r] = rng.Intn(10) == 0
				}
			}
			if k%8 == 0 {
				b.Cols[5].Null[r], b.Cols[6].Null[r] = true, true
			}
		}
		done += size
		b.SetLen(size)
		n.batches = append(n.batches, b)
	}
	return n
}

// aggRepeatsInput keeps repeating keys among the misses of the merge's runs.
// Its first preAggProbeRows + rows/5 rows draw from a million keys, so that
// nearly every row opens a group and phase 1 bypasses pre-aggregation
// wherever a worker sees a full probe window; the rest are new keys four rows
// each, which a bypassing worker writes into one page and phase 2 then meets
// four times in one run, all of them new to its table.
func aggRepeatsInput(rows int) *batchesNode {
	rng := rand.New(rand.NewSource(5))
	return aggKeyedInput(rng, rows, func(r int) int {
		if r < preAggProbeRows+rows/5 {
			return rng.Intn(1 << 20)
		}
		return 1<<20 + r/4
	})
}

// aggHint0Shapes are the key shapes aggHint0Input concentrates.
var aggHint0Shapes = [][]string{{"ki"}, {"kd", "ki"}}

// aggHint0Input draws rows over 30 keys whose hashes, grouped by either of
// aggHint0Shapes, all pick global shard 0 (and so one spilled partition). The
// phase-1 sketch then sizes every shard for no group (hint 0), and the first
// page that reaches shard 0 brings it more new groups in one run than its
// 16 slots hold.
func aggHint0Input(rows int) *batchesNode {
	schema := data.NewSchema(data.ColumnDef{Name: "ki", Type: data.Int64}, data.ColumnDef{Name: "kd", Type: data.Date})
	var keys []int
	shiftS := uint(64 - log2(aggShards))
	for lo := 0; len(keys) < 30; lo += 4096 {
		b := data.NewBatch(schema, 4096)
		for k := lo; k < lo+4096; k++ {
			b.Cols[0].I = append(b.Cols[0].I, int64(k)*7919-3)
			b.Cols[1].I = append(b.Cols[1].I, int64(9000+k%31))
		}
		b.SetLen(4096)
		h1 := data.HashColumns(b, nil, []int{0}, nil)
		h2 := data.HashColumns(b, nil, []int{1, 0}, nil)
		for i := range h1 {
			if h1[i]>>shiftS == 0 && h2[i]>>shiftS == 0 && len(keys) < 30 {
				keys = append(keys, lo+i)
			}
		}
	}
	rng := rand.New(rand.NewSource(6))
	return aggKeyedInput(rng, rows, func(int) int { return keys[rng.Intn(len(keys))] })
}

var aggPropSpecs = []AggSpec{
	{Func: CountStar, As: "n"},
	{Func: Count, Col: "vi", As: "cnt_vi"},
	{Func: Sum, Col: "vf", As: "sum_vf"},
	{Func: Sum, Col: "vi", As: "sum_vi"},
	{Func: Avg, Col: "vf", As: "avg_vf"},
	{Func: Avg, Col: "vi", As: "avg_vi"},
	{Func: Min, Col: "vi", As: "min_vi"},
	{Func: Max, Col: "vf", As: "max_vf"},
	{Func: Min, Col: "vs", As: "min_vs"},
	{Func: Max, Col: "vs", As: "max_vs"},
	{Func: Max, Col: "kd", As: "max_kd"},
}

// cell renders one value the way the reference and the output are compared.
func cell(c *data.Column, r int) string {
	switch {
	case isNull(c, r):
		return "NULL"
	case c.Type == data.Float64:
		return fmt.Sprint(c.F[r])
	case c.Type == data.String:
		return fmt.Sprintf("%q", c.S[r])
	default:
		return fmt.Sprint(c.I[r])
	}
}

func isNull(c *data.Column, r int) bool { return c.Null != nil && c.Null[r] }

// refGroup is one group of the map-based reference evaluator.
type refGroup struct {
	key                        string
	n, cnt                     int64
	sumF, sumI, avgF, avgI     float64
	avgFn, avgIn               int64
	minVI, maxKD               int64
	maxVF                      float64
	minVS, maxVS               string
	seenVI, seenVF, seenVS, kd bool
}

// aggReference evaluates aggPropSpecs grouped by the named columns with a Go
// map over the raw input rows, and renders the groups like renderAgg.
func aggReference(in *batchesNode, groupBy []string) []string {
	keyCols := indicesOf(in.schema, groupBy)
	groups := map[string]*refGroup{}
	for _, b := range in.batches {
		vi, vf, vs, kd := &b.Cols[4], &b.Cols[5], &b.Cols[6], &b.Cols[3]
		for r := 0; r < b.Len(); r++ {
			var sb strings.Builder
			for _, c := range keyCols {
				sb.WriteString(cell(&b.Cols[c], r))
				sb.WriteByte('|')
			}
			g := groups[sb.String()]
			if g == nil {
				g = &refGroup{key: sb.String()}
				groups[g.key] = g
			}
			g.n++
			if !isNull(vi, r) {
				x := vi.I[r]
				g.cnt++
				g.sumI += float64(x)
				g.avgI += float64(x)
				g.avgIn++
				if !g.seenVI || x < g.minVI {
					g.minVI = x
				}
				g.seenVI = true
			}
			if !isNull(vf, r) {
				x := vf.F[r]
				g.sumF += x
				g.avgF += x
				g.avgFn++
				if !g.seenVF || x > g.maxVF {
					g.maxVF = x
				}
				g.seenVF = true
			}
			if !isNull(vs, r) {
				x := vs.S[r]
				if !g.seenVS || x < g.minVS {
					g.minVS = x
				}
				if !g.seenVS || x > g.maxVS {
					g.maxVS = x
				}
				g.seenVS = true
			}
			if !isNull(kd, r) {
				if x := kd.I[r]; !g.kd || x > g.maxKD {
					g.maxKD = x
				}
				g.kd = true
			}
		}
	}
	avg := func(sum float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	out := make([]string, 0, len(groups))
	for _, g := range groups {
		out = append(out, fmt.Sprintf("%s%d|%d|%v|%v|%v|%v|%d|%v|%q|%q|%d|", g.key, g.n, g.cnt, g.sumF, g.sumI,
			avg(g.avgF, g.avgFn), avg(g.avgI, g.avgIn), g.minVI, g.maxVF, g.minVS, g.maxVS, g.maxKD))
	}
	sort.Strings(out)
	return out
}

func renderAgg(b *data.Batch) []string {
	out := make([]string, b.Len())
	for r := range out {
		var sb strings.Builder
		for c := range b.Cols {
			sb.WriteString(cell(&b.Cols[c], r))
			sb.WriteByte('|')
		}
		out[r] = sb.String()
	}
	sort.Strings(out)
	return out
}

func diffRows(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d groups, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sorted group %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestAggMatchesMapReference is the group table's property test: every key
// shape, every aggregate function, in memory and spilling, at 1, 2 and 8
// workers, against a map-based evaluation of the same rows. The shapes take
// phase 2's fixed-width keys and its string keys, alone and composite.
func TestAggMatchesMapReference(t *testing.T) {
	shapes := [][]string{
		{"ki"}, {"kf"}, {"ks"}, {"kd"}, {"ni"}, {"ns"},
		{"ki", "ks"}, {"ks", "kf", "ki"}, {"kd", "ki"}, {"ni", "kd"},
		nil,
	}
	rows := 60000
	if testing.Short() {
		rows = 25000
	}
	inputs := []struct {
		name   string
		in     *batchesNode
		shapes [][]string
	}{
		// 40 keys per column pre-aggregate almost completely; 30000 mostly
		// open a group per row, which at one worker also trips the bypass.
		{"card=40", aggPropInput(rand.New(rand.NewSource(40)), rows, 40), shapes},
		{"card=30000", aggPropInput(rand.New(rand.NewSource(30000)), rows, 30000), shapes},
		{"repeats", aggRepeatsInput(rows), [][]string{{"ki"}, {"ns"}, {"kd", "ki"}, {"ni", "kd"}}},
		{"hint0", aggHint0Input(rows / 4), aggHint0Shapes},
	}
	for _, input := range inputs {
		for _, groupBy := range input.shapes {
			want := aggReference(input.in, groupBy)
			for _, workers := range []int{1, 2, 8} {
				for _, mode := range []string{"memory", "spill"} {
					name := fmt.Sprintf("%s/by=%s/workers=%d/%s", input.name, strings.Join(groupBy, ","), workers, mode)
					t.Run(name, func(t *testing.T) {
						ctx := testCtx(workers)
						if mode == "spill" {
							ctx = spillCtx(workers, 256)
						}
						defer ctx.Close()
						out, err := Collect(ctx, NewAgg(input.in, groupBy, aggPropSpecs))
						if err != nil {
							t.Fatal(err)
						}
						diffRows(t, renderAgg(out), want)
						if mode == "spill" && len(want) > 10000 && ctx.Stats.Get(metrics.SpilledBytes) == 0 {
							t.Fatal("the spilling run did not spill")
						}
					})
				}
			}
		}
	}
}

// TestAggFloatKeysGroupByBits: a float key groups by its bits, the way it
// hashes, in the local tables, the global table and spilled partitions alike:
// NaN is one group, +0 and −0 are two.
func TestAggFloatKeysGroupByBits(t *testing.T) {
	in := aggPropInput(rand.New(rand.NewSource(3)), 30000, 3000)
	kinds := []float64{math.NaN(), 0, math.Copysign(0, -1), 1.5}
	rng := rand.New(rand.NewSource(4))
	for _, b := range in.batches {
		for r := range b.Cols[1].F {
			b.Cols[1].F[r] = kinds[rng.Intn(len(kinds))]
		}
	}
	if want := aggReference(in, []string{"kf"}); len(want) != len(kinds)+1 { // and NULL
		t.Fatalf("the reference has %d kf groups, want %d", len(want), len(kinds)+1)
	}
	for _, groupBy := range [][]string{{"kf"}, {"kf", "ki"}} {
		want := aggReference(in, groupBy)
		for _, workers := range []int{1, 2} {
			for _, mode := range []string{"memory", "spill"} {
				t.Run(fmt.Sprintf("by=%s/workers=%d/%s", strings.Join(groupBy, ","), workers, mode), func(t *testing.T) {
					ctx := testCtx(workers)
					if mode == "spill" {
						ctx = spillCtx(workers, 256)
					}
					defer ctx.Close()
					out, err := Collect(ctx, NewAgg(in, groupBy, aggPropSpecs))
					if err != nil {
						t.Fatal(err)
					}
					diffRows(t, renderAgg(out), want)
					if mode == "spill" && len(groupBy) > 1 && ctx.Stats.Get(metrics.SpilledBytes) == 0 {
						t.Fatal("the spilling run did not spill")
					}
				})
			}
		}
	}

	// Phase 1 alone: a batch of NaN keys opens one local group.
	schema := data.NewSchema(data.ColumnDef{Name: "k", Type: data.Float64})
	b := data.NewBatch(schema, 100)
	for r := 0; r < 100; r++ {
		b.Cols[0].F = append(b.Cols[0].F, math.NaN())
	}
	b.SetLen(100)
	a := NewAgg(&ValuesNode{Batch: b}, []string{"k"}, []AggSpec{{Func: CountStar, As: "n"}})
	aw := newAggWorker(a, []int{0}, core.NewShared((&Ctx{}).coreConfig()).NewBuffer(), &hll.Sketch{}, true)
	aw.consume(b)
	if aw.opened != 1 {
		t.Fatalf("100 NaN keys opened %d local groups, want 1", aw.opened)
	}
}

// partialTuples encodes the rows of a batch laid out in a's partial schema.
func partialTuples(a *Agg, b *data.Batch) [][]byte {
	out := make([][]byte, b.Len())
	for r := range out {
		out[r] = encodeRow(a.rc, b, r)
	}
	return out
}

// countSumAgg groups (k int64, s string) pairs and keeps count(*) and sum(v).
func countSumAgg() *Agg {
	in := &batchesNode{schema: data.NewSchema(
		data.ColumnDef{Name: "k", Type: data.Int64},
		data.ColumnDef{Name: "s", Type: data.String},
		data.ColumnDef{Name: "v", Type: data.Float64},
	)}
	return NewAgg(in, []string{"k", "s"}, []AggSpec{{Func: CountStar, As: "n"}, {Func: Sum, Col: "v", As: "sum"}})
}

// TestGroupTableCollisionsAndGrowth drives one table directly: every tuple
// arrives with the same hash, so every probe walks one run of slots and only
// the key compare tells groups apart, while the table grows from its smallest size
// through several doublings (whose re-insertion sees nothing but equal
// hashes). A second table gets real hashes and no hint.
func TestGroupTableCollisionsAndGrowth(t *testing.T) {
	a := countSumAgg()
	const groups, tuples = 700, 5000
	rng := rand.New(rand.NewSource(1))
	pb := data.NewBatch(a.partial, tuples)
	type ref struct {
		n   int64
		sum float64
	}
	want := map[string]*ref{}
	for i := 0; i < tuples; i++ {
		k := rng.Intn(groups)
		s := fmt.Sprint("s", k%13)
		n, sum := int64(1+rng.Intn(3)), float64(rng.Intn(100))*0.5
		pb.Cols[0].I = append(pb.Cols[0].I, int64(k))
		pb.Cols[1].S = append(pb.Cols[1].S, s)
		pb.Cols[2].I = append(pb.Cols[2].I, n)
		pb.Cols[3].F = append(pb.Cols[3].F, sum)
		key := fmt.Sprintf("%d|%q|", k, s)
		if want[key] == nil {
			want[key] = &ref{}
		}
		want[key].n += n
		want[key].sum += sum
	}
	pb.SetLen(tuples)
	var wantRows []string
	for key, g := range want {
		wantRows = append(wantRows, fmt.Sprintf("%s%d|%v|", key, g.n, g.sum))
	}
	sort.Strings(wantRows)

	for name, hash := range map[string]func([]byte) uint64{
		"colliding": func([]byte) uint64 { return 0xdeadbeefcafe },
		"hashed":    func(tuple []byte) uint64 { return a.rc.HashTuple(tuple, a.keyFields) },
	} {
		tbl := &groupTable{a: a}
		var st mergeStage
		tuples := partialTuples(a, pb)
		hs := make([]uint64, len(tuples))
		for i, tuple := range tuples {
			hs[i] = hash(tuple)
		}
		// Runs of 600: the table grows inside a run and between runs.
		for lo := 0; lo < len(tuples); lo += 600 {
			hi := min(lo+600, len(tuples))
			tbl.mergeRun(tuples[lo:hi], hs[lo:hi], &st)
		}
		if tbl.n != len(want) {
			t.Fatalf("%s: %d groups, want %d", name, tbl.n, len(want))
		}
		if len(tbl.slots) < 1024 {
			t.Fatalf("%s: %d slots for %d groups: the table never grew", name, len(tbl.slots), tbl.n)
		}
		out := data.NewBatch(a.schema, 0)
		var arena data.ByteArena
		var got []string
		for lo := 0; lo < tbl.n; lo += 256 {
			out.Reset()
			tbl.emit(out, lo, min(lo+256, tbl.n), &arena)
			got = append(got, renderAgg(out)...)
		}
		sort.Strings(got)
		diffRows(t, got, wantRows)

		// One tuple a run, into a table without a hint: a run whose new group
		// finds the table full grows it, and its miss then walks the new
		// array from its hash past the groups of earlier runs.
		one := &groupTable{a: a}
		for j := range tuples {
			one.mergeRun(tuples[j:j+1], hs[j:j+1], &st)
		}
		if one.n != len(want) {
			t.Fatalf("%s, one tuple a run: %d groups, want %d", name, one.n, len(want))
		}

		// A reset table is empty and reusable.
		tbl.reset()
		tbl.mergeRun(tuples[:1], []uint64{7}, &st)
		if tbl.n != 1 {
			t.Fatalf("%s: %d groups after reset and one merge", name, tbl.n)
		}
	}
}

// TestAggBypassDecision: the cardinality probe counts the groups opened in
// its window. The table's size cannot stand in for that: it is flushed at
// localAggMax, far below the threshold.
func TestAggBypassDecision(t *testing.T) {
	schema := data.NewSchema(data.ColumnDef{Name: "k", Type: data.Int64}, data.ColumnDef{Name: "v", Type: data.Float64})
	for _, tc := range []struct {
		name   string
		groups int
		bypass bool
	}{
		{"all-distinct", 1 << 30, true},
		{"4-groups", 4, false},
		{"half-distinct", 0, false}, // every key twice in a row
	} {
		in := &batchesNode{schema: schema}
		const rows = 3 * preAggProbeRows
		ref := map[int64]float64{}
		for lo := 0; lo < rows; lo += 1024 {
			b := data.NewBatch(schema, 1024)
			for r := lo; r < lo+1024; r++ {
				k := int64(r)
				switch {
				case tc.groups == 0:
					k = int64(r / 2)
				case tc.groups < rows:
					k = int64(r % tc.groups)
				}
				b.Cols[0].I = append(b.Cols[0].I, k)
				b.Cols[1].F = append(b.Cols[1].F, 0.5)
				ref[k] += 0.5
			}
			b.SetLen(1024)
			in.batches = append(in.batches, b)
		}
		a := NewAgg(in, []string{"k"}, []AggSpec{{Func: Sum, Col: "v", As: "s"}})

		shared := core.NewShared((&Ctx{}).coreConfig())
		aw := newAggWorker(a, []int{0}, shared.NewBuffer(), &hll.Sketch{}, true)
		for _, b := range in.batches {
			aw.consume(b)
		}
		if aw.preAgg == tc.bypass {
			t.Errorf("%s: pre-aggregation on = %v after %d rows, want bypass = %v", tc.name, aw.preAgg, rows, tc.bypass)
		}

		out, err := Collect(testCtx(1), a)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != len(ref) {
			t.Fatalf("%s: %d groups, want %d", tc.name, out.Len(), len(ref))
		}
		for r := 0; r < out.Len(); r++ {
			if k := out.Cols[0].I[r]; out.Cols[1].F[r] != ref[k] {
				t.Fatalf("%s: group %d sums to %v, want %v", tc.name, k, out.Cols[1].F[r], ref[k])
			}
		}
	}
}

// TestAggOverflowPartitions: an aggregation with more groups than a worker's
// table holds turns partitioning on before its first flush, in ModeAdaptive
// with no budget: its pages end in Result.InMemory, with at most one
// unpartitioned page per worker. A Q1-shaped aggregation (three groups)
// stays unpartitioned, ModeNeverPartition partitions neither, and each gives
// the same groups in both modes.
func TestAggOverflowPartitions(t *testing.T) {
	const workers, rows = 2, 40000
	for _, tc := range []struct {
		groupBy string
		groups  int
	}{
		{"okey", rows}, // every row its own group: the tables overflow
		{"flag", 3},    // Q1's shape: a few groups, pre-aggregated away
	} {
		var want []string
		for _, mode := range []core.Mode{core.ModeNeverPartition, core.ModeAdaptive} {
			ctx := testCtx(workers)
			ctx.Mode = mode
			a := NewAgg(NewScan(ordersTable(rows), "okey", "total", "flag"), []string{tc.groupBy}, []AggSpec{
				{Func: Sum, Col: "total", As: "s"}, {Func: CountStar, As: "n"},
				{Func: Min, Col: "flag", As: "f"}, {Func: Max, Col: "total", As: "m"},
			})
			res, distinct, err := a.materialize(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			partitioned := mode == core.ModeAdaptive && tc.groups > localAggMax
			inMemory := 0
			for _, pgs := range res.InMemory {
				inMemory += len(pgs)
			}
			switch {
			case res.HasSpilled():
				t.Fatalf("%s, mode %d: spilled without a budget", tc.groupBy, mode)
			case (res.Counters[metrics.Partitioned] == 1) != partitioned || (inMemory > 0) != partitioned:
				t.Fatalf("%s, mode %d: partitioned = %d with %d partition pages, want partitioned = %v",
					tc.groupBy, mode, res.Counters[metrics.Partitioned], inMemory, partitioned)
			case partitioned && len(res.Unpartitioned) > workers:
				t.Fatalf("%s: %d unpartitioned pages over %d workers", tc.groupBy, len(res.Unpartitioned), workers)
			}
			got := mergeRows(t, ctx, a, res, distinct)
			ctx.Close()
			if len(got) != tc.groups {
				t.Fatalf("%s, mode %d: %d groups, want %d", tc.groupBy, mode, len(got), tc.groups)
			}
			if want == nil {
				want = got
				continue
			}
			diffRows(t, got, want)
		}
	}
}

// TestAggEmitsBoundedBatches: no output batch exceeds the capacity the batch
// pool retains, whatever the size of a shard or a spilled partition.
func TestAggEmitsBoundedBatches(t *testing.T) {
	for _, ctx := range []*Ctx{testCtx(2), spillCtx(2, 128)} {
		tbl := ordersTable(aggShards*emitRows + 50000)
		a := NewAgg(NewScan(tbl, "okey", "total"), []string{"okey"}, []AggSpec{{Func: Sum, Col: "total", As: "s"}})
		s, err := a.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var rows, largest atomic.Int64
		err = Drain(ctx, s, func(_ int, b *data.Batch) error {
			rows.Add(int64(b.Len()))
			for {
				l := largest.Load()
				if int64(b.Len()) <= l || largest.CompareAndSwap(l, int64(b.Len())) {
					return nil
				}
			}
		})
		ctx.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rows.Load() != tbl.Rows() {
			t.Fatalf("%d groups, want %d", rows.Load(), tbl.Rows())
		}
		if largest.Load() > emitRows {
			t.Fatalf("a batch of %d rows, the bound is %d", largest.Load(), emitRows)
		}
	}
}

// aggMergeInput materializes `tuples` partial tuples over `groups` distinct
// keys, as phase 1 leaves them: two int64 keys and count(*) or, with strKey,
// an int64 and a string key (a customer name, the shape of Q10's and Q18's
// keys) with count(*) and a sum. With parts 1 the pages are unpartitioned;
// with more, each partition has pages of its own, as when the aggregation
// partitioned from the start.
func aggMergeInput(groups, tuples int, strKey bool, parts int) (*Agg, *core.Result) {
	schema := data.NewSchema(
		data.ColumnDef{Name: "k1", Type: data.Int64},
		data.ColumnDef{Name: "k2", Type: data.Int64},
		data.ColumnDef{Name: "v", Type: data.Float64},
	)
	specs := []AggSpec{{Func: CountStar, As: "n"}}
	var names []string
	if strKey {
		schema.Cols[1].Type = data.String
		specs = append(specs, AggSpec{Func: Sum, Col: "v", As: "s"})
		for k := 0; k < groups; k++ {
			names = append(names, fmt.Sprintf("Customer#%09d", k))
		}
	}
	a := NewAgg(&batchesNode{schema: schema}, []string{"k1", "k2"}, specs)
	pb := data.NewBatch(a.partial, 1)
	for c := range pb.Cols {
		pb.Cols[c].I, pb.Cols[c].F, pb.Cols[c].S = []int64{1}, []float64{0.5}, []string{""}
	}
	pb.SetLen(1)
	res := &core.Result{
		Partitions: parts,
		InMemory:   make([][]*pages.Page, parts),
		Counters:   metrics.Snapshot{metrics.TuplesStored: int64(tuples)},
	}
	shift := 64 - log2(uint64(parts)) // 64 when unpartitioned: every hash is partition 0
	open := make([]*pages.Page, parts)
	for i := 0; i < tuples; i++ {
		k := i % groups
		pb.Cols[0].I[0] = int64(k / 7)
		if strKey {
			pb.Cols[1].S[0] = names[k]
		} else {
			pb.Cols[1].I[0] = int64(k)
		}
		tuple := encodeRow(a.rc, pb, 0)
		part := int(a.rc.HashTuple(tuple, a.keyFields) >> shift)
		if pg := open[part]; pg == nil || !pg.HasSpace(len(tuple)) {
			open[part] = pages.New(pages.DefaultPageSize)
			if parts == 1 {
				res.Unpartitioned = append(res.Unpartitioned, open[part])
			} else {
				open[part].Part = part
				res.InMemory[part] = append(res.InMemory[part], open[part])
			}
		}
		open[part].Append(tuple)
	}
	return a, res
}

// mergeRows runs phase 2 over res and returns its groups as renderAgg rows.
func mergeRows(t testing.TB, ctx *Ctx, a *Agg, res *core.Result, distinct int64) []string {
	t.Helper()
	s, err := a.mergePhase(ctx, nil, res, distinct)
	if err != nil {
		t.Fatal(err)
	}
	out, err := collect(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	return renderAgg(out)
}

// TestAggMergeFlatEqualsPartitioned: the global merge gives the same groups
// over the same partial tuples whether they lie on unpartitioned pages, on
// 64 partitions' (a partition is a shard: its pages merge without a
// scatter) or on 16 partitions' (a page scatters into its partition's four
// shards).
func TestAggMergeFlatEqualsPartitioned(t *testing.T) {
	const groups, tuples = 5000, 20000
	for _, strKey := range []bool{false, true} {
		var want []string
		for _, parts := range []int{1, 16, 64} {
			a, res := aggMergeInput(groups, tuples, strKey, parts)
			got := mergeRows(t, testCtx(2), a, res, groups)
			if parts == 1 {
				want = got
				if len(want) != groups {
					t.Fatalf("flat merge: %d groups, want %d", len(want), groups)
				}
				continue
			}
			diffRows(t, got, want)
		}
	}
}

// benchAggMerge times phase 2 alone — the clustered merge of materialized
// partial tuples into the global group table, and its emission — at two
// workers, the benchmark's setting. The merge recycles its input pages, so
// every iteration materializes its own, with the timer stopped.
func benchAggMerge(b *testing.B, groups int, strKey bool, parts int) {
	const tuples = 600000
	ctx := testCtx(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, res := aggMergeInput(groups, tuples, strKey, parts)
		b.StartTimer()
		s, err := a.mergePhase(ctx, nil, res, int64(groups))
		if err != nil {
			b.Fatal(err)
		}
		var rows atomic.Int64
		if err := Drain(ctx, s, func(_ int, out *data.Batch) error {
			rows.Add(int64(out.Len()))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if rows.Load() != int64(groups) {
			b.Fatalf("%d groups, want %d", rows.Load(), groups)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/tuples, "ns/tuple")
}

// BenchmarkAggMergeHighCard: every tuple opens a group (Q21's distinct
// aggregations at SF 0.1).
func BenchmarkAggMergeHighCard(b *testing.B) { benchAggMerge(b, 600000, false, 1) }

// BenchmarkAggMergeHighCardPartitioned: HighCard's tuples on 64 partitions'
// pages, as a high-cardinality aggregation leaves them once its tables
// overflow; each partition is one shard of the global table.
func BenchmarkAggMergeHighCardPartitioned(b *testing.B) { benchAggMerge(b, 600000, false, 64) }

// BenchmarkAggMergeLowCard: four groups take every tuple (Q1's shape with
// pre-aggregation off).
func BenchmarkAggMergeLowCard(b *testing.B) { benchAggMerge(b, 4, false, 1) }

// BenchmarkAggMergeStringKey: 150 k groups of four tuples each, keyed by an
// int64 and a string.
func BenchmarkAggMergeStringKey(b *testing.B) { benchAggMerge(b, 150000, true, 1) }

// BenchmarkAggPreAgg times phase 1 alone in Q1's shape: 600 k rows in 32 Ki-row
// batches (the table scan's row groups) under a selection vector that drops
// one row in fifty, two one-letter string keys over 4 groups, eight
// aggregates, one worker. It reports ns per live row.
func BenchmarkAggPreAgg(b *testing.B) {
	const rows, batchRows = 600000, 32 << 10
	schema := data.NewSchema(
		data.ColumnDef{Name: "flag", Type: data.String},
		data.ColumnDef{Name: "status", Type: data.String},
		data.ColumnDef{Name: "qty", Type: data.Float64},
		data.ColumnDef{Name: "price", Type: data.Float64},
		data.ColumnDef{Name: "disc", Type: data.Float64},
		data.ColumnDef{Name: "disc_price", Type: data.Float64},
		data.ColumnDef{Name: "charge", Type: data.Float64},
	)
	in := &batchesNode{schema: schema}
	rng := rand.New(rand.NewSource(1))
	live := 0
	for lo := 0; lo < rows; lo += batchRows {
		n := min(batchRows, rows-lo)
		bt := data.NewBatch(schema, n)
		for r := 0; r < n; r++ {
			g := rng.Intn(4)
			bt.Cols[0].S = append(bt.Cols[0].S, []string{"A", "N", "N", "R"}[g])
			bt.Cols[1].S = append(bt.Cols[1].S, []string{"F", "F", "O", "F"}[g])
			for c := 2; c < len(bt.Cols); c++ {
				bt.Cols[c].F = append(bt.Cols[c].F, float64(rng.Intn(5000))*0.01)
			}
			if r%50 != 49 {
				bt.Sel = append(bt.Sel, int32(r))
			}
		}
		bt.SetLen(n)
		live += len(bt.Sel)
		in.batches = append(in.batches, bt)
	}
	a := NewAgg(in, []string{"flag", "status"}, []AggSpec{
		{Func: Sum, Col: "qty"}, {Func: Sum, Col: "price"}, {Func: Sum, Col: "disc_price"}, {Func: Sum, Col: "charge"},
		{Func: Avg, Col: "qty"}, {Func: Avg, Col: "price"}, {Func: Avg, Col: "disc"}, {Func: CountStar},
	})
	shared := core.NewShared((&Ctx{}).coreConfig())
	aw := newAggWorker(a, []int{0, 1}, shared.NewBuffer(), &hll.Sketch{}, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bt := range in.batches {
			aw.consume(bt)
		}
		aw.flushAll()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(live), "ns/tuple")
	if !aw.preAgg {
		b.Fatal("pre-aggregation was bypassed")
	}
}

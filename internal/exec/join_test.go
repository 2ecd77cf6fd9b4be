package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/metrics"
)

// The join's property test: the operator against a map-based nested-loop
// reference, compared as multisets of rendered rows.

var (
	joinRefBuild = data.NewSchema(
		data.ColumnDef{Name: "bk", Type: data.Int64},
		data.ColumnDef{Name: "bs", Type: data.String},
		data.ColumnDef{Name: "bd", Type: data.Date},
		data.ColumnDef{Name: "bv", Type: data.Float64},
	)
	joinRefProbe = data.NewSchema(
		data.ColumnDef{Name: "pk", Type: data.Int64},
		data.ColumnDef{Name: "ps", Type: data.String},
		data.ColumnDef{Name: "pd", Type: data.Date},
		data.ColumnDef{Name: "pv", Type: data.Int64},
	)
)

// joinRefSide builds one join input: row i has integer key keys(i), the
// string and date keys derived from it, and i as payload. nullEvery > 0 makes
// every nullEvery-th integer key NULL (garbage left under the mark); with sel
// only two rows in three are live.
func joinRefSide(schema *data.Schema, rows int, keys func(i int) int64, nullEvery int, sel bool) *batchesNode {
	n := &batchesNode{schema: schema}
	for done := 0; done < rows; {
		size := min(700, rows-done)
		b := data.NewBatch(schema, size)
		if nullEvery > 0 {
			b.Cols[0].Null = make([]bool, size)
		}
		for r := 0; r < size; r++ {
			i := done + r
			k := keys(i)
			b.Cols[0].I = append(b.Cols[0].I, k)
			b.Cols[1].S = append(b.Cols[1].S, fmt.Sprintf("s%d", k%1000))
			b.Cols[2].I = append(b.Cols[2].I, 9000+k%50)
			if schema.Cols[3].Type == data.Float64 {
				b.Cols[3].F = append(b.Cols[3].F, float64(i))
			} else {
				b.Cols[3].I = append(b.Cols[3].I, int64(i))
			}
			if nullEvery > 0 {
				b.Cols[0].Null[r] = i%nullEvery == 0
			}
			if sel && i%3 != 0 {
				b.Sel = append(b.Sel, int32(r))
			}
		}
		if sel && b.Sel == nil {
			b.Sel = []int32{}
		}
		b.SetLen(size)
		n.batches = append(n.batches, b)
		done += size
	}
	return n
}

// renderCells renders the given columns of row r the way joinRowSet renders
// an output row.
func renderCells(sb *strings.Builder, b *data.Batch, r int) {
	for c := range b.Cols {
		col := &b.Cols[c]
		switch {
		case col.Null != nil && col.Null[r]:
			sb.WriteString("|NULL")
		case col.Type == data.Float64:
			fmt.Fprintf(sb, "|%v", col.F[r])
		case col.Type == data.String:
			sb.WriteString("|" + col.S[r])
		default:
			fmt.Fprintf(sb, "|%d", col.I[r])
		}
	}
}

// joinReference evaluates the join with a Go map from rendered key to build
// rows. Keys compare as the operator's do today: NULL equals NULL.
func joinReference(kind JoinKind, build *batchesNode, bKeys []string, probe *batchesNode, pKeys []string) map[string]int {
	keyOf := func(b *data.Batch, cols []int, r int) string {
		var sb strings.Builder
		for _, c := range cols {
			col := &b.Cols[c]
			if col.Null != nil && col.Null[r] {
				sb.WriteString("|NULL")
			} else if col.Type == data.String {
				sb.WriteString("|" + col.S[r])
			} else {
				fmt.Fprintf(&sb, "|%d", col.I[r])
			}
		}
		return sb.String()
	}
	index := map[string][]string{} // key → rendered build rows
	bCols := indicesOf(build.schema, bKeys)
	for _, b := range build.batches {
		for i := 0; i < b.Rows(); i++ {
			var sb strings.Builder
			renderCells(&sb, b, b.Row(i))
			k := keyOf(b, bCols, b.Row(i))
			index[k] = append(index[k], sb.String())
		}
	}
	padding := strings.Repeat("|NULL", build.schema.Len())
	out := map[string]int{}
	pCols := indicesOf(probe.schema, pKeys)
	for _, b := range probe.batches {
		for i := 0; i < b.Rows(); i++ {
			r := b.Row(i)
			var sb strings.Builder
			renderCells(&sb, b, r)
			row := sb.String()
			matches := index[keyOf(b, pCols, r)]
			switch kind {
			case Semi:
				if len(matches) > 0 {
					out[row]++
				}
			case Anti:
				if len(matches) == 0 {
					out[row]++
				}
			default:
				for _, m := range matches {
					out[row+m]++
				}
				if kind == Outer && len(matches) == 0 {
					out[row+padding]++
				}
			}
		}
	}
	return out
}

func TestJoinMatchesReference(t *testing.T) {
	n := 4000
	if testing.Short() {
		n = 2500 // still 100 KB of build tuples against the 64 KiB budget
	}
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	zipfKeys := make([]int64, n)
	for i := range zipfKeys {
		zipfKeys[i] = int64(zipf.Uint64())
	}
	unique := func(i int) int64 { return int64(i) }
	spread := func(i int) int64 { return int64(i*7) % int64(2*n) } // half of them miss
	type side struct {
		rows      int
		keys      func(i int) int64
		nullEvery int
		sel       bool
	}
	cases := []struct {
		name         string
		build, probe side
		bKeys, pKeys []string
	}{
		{"unique", side{n, unique, 0, false}, side{n, spread, 0, false}, []string{"bk"}, []string{"pk"}},
		{"zipf", side{n, func(i int) int64 { return zipfKeys[i] }, 0, false}, side{n, spread, 0, false}, []string{"bk"}, []string{"pk"}},
		{"equal", side{n / 10, func(int) int64 { return 7 }, 0, false}, side{40, func(i int) int64 { return int64(7 + i%2) }, 0, false}, []string{"bk"}, []string{"pk"}},
		{"null keys", side{n, unique, 5, false}, side{n / 20, spread, 3, false}, []string{"bk"}, []string{"pk"}},
		{"string key", side{n / 2, unique, 0, false}, side{n, spread, 0, false}, []string{"bs"}, []string{"ps"}},
		{"mixed key", side{n, unique, 7, false}, side{n, spread, 0, false}, []string{"bd", "bk", "bs"}, []string{"pd", "pk", "ps"}},
		{"empty build", side{0, unique, 0, false}, side{n, spread, 0, false}, []string{"bk"}, []string{"pk"}},
		{"empty probe", side{n, unique, 0, false}, side{0, spread, 0, false}, []string{"bk"}, []string{"pk"}},
		{"probe sel", side{n, unique, 0, false}, side{n, spread, 0, true}, []string{"bk"}, []string{"pk"}},
	}
	configs := []struct {
		name  string
		ctx   func(workers int) *Ctx
		grace bool
	}{
		{"memory", testCtx, false},
		{"spill", func(w int) *Ctx { return spillCtx(w, 64) }, false},
		{"grace", testCtx, true},
	}
	for _, c := range cases {
		build := joinRefSide(joinRefBuild, c.build.rows, c.build.keys, c.build.nullEvery, c.build.sel)
		probe := joinRefSide(joinRefProbe, c.probe.rows, c.probe.keys, c.probe.nullEvery, c.probe.sel)
		for _, kind := range []JoinKind{Inner, Semi, Anti, Outer} {
			want := joinReference(kind, build, c.bKeys, probe, c.pKeys)
			for _, cfg := range configs {
				for _, workers := range []int{1, 2, 8} {
					ctx := cfg.ctx(workers)
					ctx.Grace = cfg.grace
					out, err := Collect(ctx, NewJoin(kind, build, c.bKeys, probe, c.pKeys))
					if err != nil {
						t.Fatalf("%s kind %d %s workers %d: %v", c.name, kind, cfg.name, workers, err)
					}
					if got := joinRowSet(t, out); !sameRowSet(got, want) {
						t.Fatalf("%s kind %d %s workers %d: %d rows (%d distinct), reference has %d distinct",
							c.name, kind, cfg.name, workers, out.Len(), len(got), len(want))
					}
					if cfg.name == "spill" && c.build.rows == n && ctx.Stats.Get(metrics.SpilledBytes) == 0 {
						t.Fatalf("%s kind %d workers %d: the spilling configuration did not spill", c.name, kind, workers)
					}
					ctx.Close()
				}
			}
		}
	}
}

func mustRun(t *testing.T, ctx *Ctx, n Node) *Stream {
	t.Helper()
	s, err := n.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestJoinEmitsBoundedBatches: one probe row with 100 k matches comes out in
// batches of at most emitRows rows, and all of it comes out.
func TestJoinEmitsBoundedBatches(t *testing.T) {
	const dups = 100000
	build := joinRefSide(joinRefBuild, dups, func(int) int64 { return 7 }, 0, false)
	probe := joinRefSide(joinRefProbe, 3, func(i int) int64 { return int64(6 + i) }, 0, false)
	for _, kind := range []JoinKind{Inner, Outer} {
		for _, workers := range []int{1, 2} {
			ctx := testCtx(workers)
			s := mustRun(t, ctx, NewJoin(kind, build, []string{"bk"}, probe, []string{"pk"}))
			var rows, largest atomic.Int64
			err := Drain(ctx, s, func(_ int, b *data.Batch) error {
				n := int64(b.Rows())
				rows.Add(n)
				for {
					old := largest.Load()
					if n <= old || largest.CompareAndSwap(old, n) {
						return nil
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			want := int64(dups)
			if kind == Outer {
				want += 2
			}
			if rows.Load() != want {
				t.Fatalf("kind %d: %d rows, want %d", kind, rows.Load(), want)
			}
			if largest.Load() > emitRows {
				t.Fatalf("kind %d: a batch of %d rows, the bound is %d", kind, largest.Load(), emitRows)
			}
		}
	}
}

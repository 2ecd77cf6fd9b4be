//go:build !race

// Not under -race: the race runtime's allocator keeps the stale view and the
// table apart often enough to hide the corruption this test is for.

package spilly

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/exec"
	"github.com/spilly-db/spilly/internal/tpch"
)

// TestInMemoryScansLeaveTablesIntact: an in-memory scan points a pooled
// batch's columns at table storage. The batch must drop those views when it
// is reset, or the next lessee of that schema appends rows into the table.
// The four plans lease batches under the scan's schema in every way the
// engine does (aggregation, join, external sort, window); running them twice
// must leave lineitem bit-identical to a fresh generation and return the same
// rows both times.
func TestInMemoryScansLeaveTablesIntact(t *testing.T) {
	// BatchPool drops any column with room for more than 8192 values, so a
	// stale view survives only near the end of a table: 4096-row groups
	// leave lineitem a last group well inside that.
	gen := tpch.Gen{SF: 0.01, GroupSize: 4096}
	eng, err := Open(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range gen.All() {
		eng.RegisterTable(tbl)
	}
	lineitem := func() colstore.Table {
		tbl, err := eng.Table(tpch.Lineitem)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	plans := map[string]func() exec.Node{
		"agg":  eng.AggMicroPlan,
		"join": eng.JoinMicroPlan,
		"sort": func() exec.Node {
			return &ExtSortNode{
				Child: NewScan(lineitem(), "l_orderkey", "l_extendedprice", "l_shipdate", "l_comment"),
				Keys:  []SortKey{{Col: "l_extendedprice", Desc: true}, {Col: "l_orderkey"}},
			}
		},
		"window": func() exec.Node {
			return NewWindow(
				NewScan(lineitem(), "l_orderkey", "l_linenumber", "l_shipdate", "l_extendedprice"),
				[]string{"l_orderkey"},
				[]SortKey{{Col: "l_shipdate"}, {Col: "l_linenumber"}},
				[]WindowSpec{
					{Func: WRowNumber, As: "rn"},
					{Func: WSum, Col: "l_extendedprice", As: "running", Frame: FrameRunning},
				})
		},
	}
	first := map[string][]string{}
	for round := 0; round < 2; round++ {
		for _, name := range []string{"agg", "join", "sort", "window"} {
			res, err := eng.Run(plans[name]())
			if err != nil {
				t.Fatalf("round %d %s: %v", round, name, err)
			}
			rows := sortedRows(res.Batch)
			if round == 0 {
				first[name] = rows
				continue
			}
			if len(rows) != len(first[name]) {
				t.Fatalf("%s: %d rows on the second run, %d on the first", name, len(rows), len(first[name]))
			}
			for i := range rows {
				if rows[i] != first[name][i] {
					t.Fatalf("%s: second run differs from the first at sorted row %d:\n%s\n%s", name, i, rows[i], first[name][i])
				}
			}
		}
	}

	want := gen.Table(tpch.Lineitem)
	got := lineitem().(*colstore.MemTable)
	if got.Rows() != want.Rows() {
		t.Fatalf("lineitem has %d rows, a fresh generation %d", got.Rows(), want.Rows())
	}
	for c, def := range want.Schema().Cols {
		g, w := got.Column(c), want.Column(c)
		for r := 0; r < int(want.Rows()); r++ {
			var same bool
			switch def.Type {
			case data.Float64:
				same = math.Float64bits(g.F[r]) == math.Float64bits(w.F[r])
			case data.String:
				same = g.S[r] == w.S[r]
			default:
				same = g.I[r] == w.I[r]
			}
			if !same {
				t.Fatalf("lineitem.%s row %d was overwritten", def.Name, r)
			}
		}
	}
}

// sortedRows renders every row of b, floats by their bits, and sorts them.
func sortedRows(b *data.Batch) []string {
	rows := make([]string, b.Len())
	var sb strings.Builder
	for r := range rows {
		sb.Reset()
		for c := range b.Cols {
			col := &b.Cols[c]
			switch {
			case col.Null != nil && col.Null[r]:
				sb.WriteString("NULL")
			case col.Type == data.Float64:
				sb.WriteString(strconv.FormatUint(math.Float64bits(col.F[r]), 16))
			case col.Type == data.String:
				sb.WriteString(col.S[r])
			default:
				sb.WriteString(strconv.FormatInt(col.I[r], 10))
			}
			sb.WriteByte('|')
		}
		rows[r] = sb.String()
	}
	sort.Strings(rows)
	return rows
}

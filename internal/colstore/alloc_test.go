//go:build !race

// Excluded under -race: the race runtime's bookkeeping allocations make
// testing.AllocsPerRun meaningless.

package colstore_test

import (
	"sync/atomic"
	"testing"

	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/tpch"
)

// lineitemScan returns a function that reads the next row group of the
// projection from an on-array lineitem of the given group size, having read
// warm groups already, and the number of groups left.
func lineitemScan(t testing.TB, groupSize, warm int, cols ...string) (next func(), left int) {
	t.Helper()
	mt := (&tpch.Gen{SF: 0.01, GroupSize: groupSize}).All()[tpch.Lineitem]
	dt, err := zeroLatencyStore(8).WriteTable(mt)
	if err != nil {
		t.Fatal(err)
	}
	schema := dt.Schema().Project(cols...)
	proj := make([]int, len(cols))
	for i, c := range cols {
		proj[i] = dt.Schema().MustIndex(c)
	}
	var cursor atomic.Int64
	r := dt.NewReader(proj, &cursor, 0)
	b := data.NewBatch(schema, 0)
	next = func() {
		if n, err := r.Next(b); err != nil || n == 0 {
			t.Fatalf("Next returned %d rows, err %v, before the table's end", n, err)
		}
	}
	for i := 0; i < warm; i++ {
		next()
	}
	return next, dt.Groups() - warm
}

// TestAllocsDiskScan pins the external scan's steady state: the reader owns
// its read buffers and decode targets, so once its window has gone round, a
// row group of numeric columns costs no allocation at all, and a string
// chunk at most two (the backing string of its values or of its dictionary).
func TestAllocsDiskScan(t *testing.T) {
	const warm = 2 * colstore.DefaultScanDepth
	next, left := lineitemScan(t, 1024, warm,
		"l_orderkey", "l_partkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate")
	if got := testing.AllocsPerRun(left-2, next); got > 0 {
		t.Errorf("numeric projection: %.2f allocs per row group, want 0", got)
	}
	strs := []string{"l_returnflag", "l_shipinstruct", "l_comment"}
	next, left = lineitemScan(t, 1024, warm, strs...)
	if got := testing.AllocsPerRun(left-2, next); got > 2*float64(len(strs)) {
		t.Errorf("string projection: %.2f allocs per row group, want <= 2 per string chunk (%d)", got, 2*len(strs))
	}
}

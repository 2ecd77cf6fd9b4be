package exec

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/trace"
)

// TestHashBuildPanicBecomesQueryError: a panic during the hash-table build
// must surface as a structured *QueryError from the query. The build used to
// discard runWorkers' error entirely, so the query would silently proceed
// with a half-built (empty-bucket) table and return wrong results.
func TestHashBuildPanicBecomesQueryError(t *testing.T) {
	hashBuildTestHook = func() { panic("hash build exploded") }
	defer func() { hashBuildTestHook = nil }()

	j := NewJoin(Inner,
		NewScan(custTable(5000)), []string{"ckey"},
		NewScan(ordersTable(5000)), []string{"okey"})
	_, err := Collect(testCtx(2), j)
	if err == nil {
		t.Fatal("hash-build panic was swallowed: query returned no error")
	}
	var qe *core.QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v (%T), want *QueryError", err, err)
	}
	if qe.Op != "hash-build" {
		t.Fatalf("QueryError.Op = %q, want \"hash-build\"", qe.Op)
	}
	if !strings.Contains(err.Error(), "hash build exploded") {
		t.Fatalf("panic message lost: %v", err)
	}
}

// TestStatsHistogramRace: reporting a materialization result must be safe to
// run concurrently with readers of the query totals, scheme rows included
// (the engine reads them while workers finalize operators). Run with -race.
func TestStatsHistogramRace(t *testing.T) {
	s := &Stats{}
	ctx := &Ctx{Stats: s}
	lz4Row := metrics.SpilledPages + metrics.Counter(slices.Index(core.DefaultScale, codec.LZ4Fastest))
	var res metrics.Snapshot
	res[metrics.SpilledBytes], res[metrics.SpilledPages], res[lz4Row] = 1, 1, 2
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ctx.report(nil, &res)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = s.Load()
			}
		}()
	}
	wg.Wait()
	n := s.Load()
	if n[metrics.SpilledPages] != 2000 || n[lz4Row] != 4000 {
		t.Fatalf("scheme rows raw=%d lz4=%d, want raw=2000 lz4=4000", n[metrics.SpilledPages], n[lz4Row])
	}
	if got := s.Get(metrics.SpilledBytes); got != 2000 {
		t.Fatalf("spilled bytes = %d, want 2000", got)
	}
}

// TestJoinProducesSpans: running a plan with a tracer attached must yield a
// span per operator, with parentage mirroring the plan tree and row counts
// on the streaming edges.
func TestJoinProducesSpans(t *testing.T) {
	ctx := testCtx(2)
	ctx.Trace = trace.New(2)
	j := NewJoin(Inner,
		NewScan(custTable(100)), []string{"ckey"},
		NewScan(ordersTable(1000)), []string{"okey"})
	out, err := Collect(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 100 {
		t.Fatalf("join rows = %d, want 100", out.Len())
	}
	byOp := map[string][]trace.SpanSnapshot{}
	for _, s := range ctx.Trace.Snapshots() {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	if len(byOp["join"]) != 1 || len(byOp["scan"]) != 2 {
		t.Fatalf("spans = %v, want 1 join + 2 scans", byOp)
	}
	join := byOp["join"][0]
	if join.ParentID != -1 {
		t.Fatalf("join parent = %d, want root (-1)", join.ParentID)
	}
	for _, sc := range byOp["scan"] {
		if sc.ParentID != join.ID {
			t.Fatalf("scan parent = %d, want join id %d", sc.ParentID, join.ID)
		}
	}
	if join.RowsOut != 100 {
		t.Fatalf("join rows_out = %d, want 100", join.RowsOut)
	}
	if join.Snapshot[metrics.TuplesStored] != 100 {
		t.Fatalf("join tuples_stored = %d, want 100 build rows", join.Snapshot[metrics.TuplesStored])
	}
}

// TestSpillSpansCarrySpillBytes: a spilling aggregation must report its
// spill volume on the operator span, matching the query-level stats.
func TestSpillSpansCarrySpillBytes(t *testing.T) {
	ctx := spillCtx(2, 256)
	ctx.Trace = trace.New(2)
	agg := NewAgg(NewScan(ordersTable(200000)), []string{"okey"},
		[]AggSpec{{Func: Sum, Col: "total", As: "s"}})
	if _, err := Collect(ctx, agg); err != nil {
		t.Fatal(err)
	}
	var spilled int64
	for _, s := range ctx.Trace.Snapshots() {
		if s.Op == "agg" {
			spilled = s.Snapshot[metrics.SpilledBytes]
			if !s.Spilled || s.Snapshot[metrics.Partitioned] != 1 {
				t.Fatalf("agg span flags = %+v, want spilled+partitioned", s)
			}
		}
	}
	if want := ctx.Stats.Get(metrics.SpilledBytes); spilled != want {
		t.Fatalf("agg span spilled_bytes = %d, stats say %d", spilled, want)
	}
}

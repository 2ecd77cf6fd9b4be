package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/metrics"
)

// TestNilTracerIsSafe: every method must be a no-op on a nil tracer and a
// nil span — the engine calls them unconditionally after one nil check.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("scan", "lineitem")
	if sp != nil {
		t.Fatalf("nil tracer returned non-nil span")
	}
	sp.AddBusy(time.Millisecond)
	sp.AddRows(10, 1)
	sp.Merge(&metrics.Snapshot{metrics.TuplesStored: 5, metrics.SpilledBytes: 1, metrics.Partitioned: 1, metrics.SpilledPages: 1})
	tr.EndScope(sp)
	if tr.Spans() != nil || tr.Snapshots() != nil || tr.Profile(time.Second) != nil {
		t.Fatal("nil tracer must return nil collections")
	}
	if tr.Workers() != 1 {
		t.Fatal("nil tracer Workers() must be 1")
	}
}

// TestSpanTreeParentage: spans started inside another span's Run scope
// become its children; EndScope restores the enclosing scope.
func TestSpanTreeParentage(t *testing.T) {
	tr := New(2)
	root := tr.Start("extsort", "")
	child1 := tr.Start("agg", "")
	leaf := tr.Start("scan", "lineitem")
	tr.EndScope(leaf)
	tr.EndScope(child1)
	child2 := tr.Start("scan", "orders")
	tr.EndScope(child2)
	tr.EndScope(root)

	if root.ParentID != -1 {
		t.Fatalf("root parent = %d, want -1", root.ParentID)
	}
	if child1.ParentID != root.ID || child2.ParentID != root.ID {
		t.Fatalf("children parents = %d, %d, want %d", child1.ParentID, child2.ParentID, root.ID)
	}
	if leaf.ParentID != child1.ID {
		t.Fatalf("leaf parent = %d, want %d", leaf.ParentID, child1.ID)
	}
}

// TestProfileSelfTime: busy is exclusive at the source, so self time is
// busy normalized by the worker count and inclusive sums the subtree.
func TestProfileSelfTime(t *testing.T) {
	tr := New(2)
	root := tr.Start("agg", "")
	child := tr.Start("scan", "t")
	tr.EndScope(child)
	tr.EndScope(root)

	child.AddBusy(600 * time.Millisecond) // summed over 2 workers
	root.AddBusy(400 * time.Millisecond)  // exclusive of child
	root.AddRows(4, 1)

	p := tr.Profile(500 * time.Millisecond)
	if len(p.Roots) != 1 || len(p.Roots[0].Children) != 1 {
		t.Fatalf("tree shape wrong: %+v", p.Roots)
	}
	rn, cn := p.Roots[0], p.Roots[0].Children[0]
	if rn.Self != 200*time.Millisecond { // 400/2
		t.Fatalf("root self = %v, want 200ms", rn.Self)
	}
	if cn.Self != 300*time.Millisecond { // 600/2
		t.Fatalf("child self = %v, want 300ms", cn.Self)
	}
	if got := p.SelfSum(); got != 500*time.Millisecond {
		t.Fatalf("SelfSum = %v, want 500ms (total busy / workers)", got)
	}
	if rn.Inclusive != 500*time.Millisecond {
		t.Fatalf("root inclusive = %v, want 500ms", rn.Inclusive)
	}
	// A marshalled node keeps its own members next to the embedded span's.
	b, err := json.Marshal(p.Roots)
	for _, want := range []string{`"op":"agg"`, `"rows_out":4`, `"self_ns":200000000`, `"children":[{`, `"op":"scan"`} {
		if err != nil || !strings.Contains(string(b), want) {
			t.Fatalf("profile JSON (err %v) lacks %s:\n%s", err, want, b)
		}
	}
}

// TestTracerChargedTracksBusy: every busy charge to any span advances the
// tracer's charged watermark — the quantity blocking phases subtract to
// stay exclusive.
func TestTracerChargedTracksBusy(t *testing.T) {
	tr := New(2)
	a := tr.Start("scan", "")
	b := tr.Start("join", "")
	tr.EndScope(b)
	tr.EndScope(a)
	if tr.Charged() != 0 {
		t.Fatalf("fresh tracer charged = %v", tr.Charged())
	}
	a.AddBusy(100 * time.Millisecond)
	b.AddBusy(50 * time.Millisecond)
	if got := tr.Charged(); got != 150*time.Millisecond {
		t.Fatalf("charged = %v, want 150ms", got)
	}
	var nilT *Tracer
	if nilT.Charged() != 0 {
		t.Fatal("nil tracer Charged must be 0")
	}
}

// TestFormatProfile: the renderer emits one tree line per span with the
// operator name, time, percentage, and one tag per non-zero labelled counter
// in table order — a zero counter (prefetched, failovers, verified here)
// prints nothing, whatever its neighbours hold.
func TestFormatProfile(t *testing.T) {
	tr := New(1)
	root := tr.Start("agg", "group=l_returnflag")
	child := tr.Start("scan", "lineitem")
	tr.EndScope(child)
	tr.EndScope(root)
	child.AddBusy(30 * time.Millisecond)
	child.AddRows(60175, 59)
	root.AddBusy(100 * time.Millisecond)
	root.AddRows(4, 1)
	root.Merge(&metrics.Snapshot{
		metrics.TuplesStored:        60175,
		metrics.Partitioned:         1,
		metrics.SpilledBytes:        2 << 20,
		metrics.WrittenBytes:        1 << 20,
		metrics.SpillRetries:        1,
		metrics.SpillReadBytes:      2 << 20,
		metrics.SpillStallNanos:     int64(3 * time.Millisecond),
		metrics.SpillChecksumErrors: 2,
		metrics.RegLevelChanges:     3,
		metrics.RegMaxLevel:         2,
		metrics.SpilledPages:        3,
		metrics.SpilledPages + 1:    12,
	})

	out := FormatProfile(tr.Profile(100 * time.Millisecond))
	want := `query: 100.0ms total, 1 workers
└─ agg group=l_returnflag  100.0ms (100.0%)  rows=4 in=60175 partitioned spilled=2.0MB written=1.0MB spill-read=2.0MB stall=3.0ms retries=1 csum-errors=2 reg-changes=3 reg-max-level=2 raw=3 lz4-a8=12
   └─ scan lineitem  30.0ms (30.0%)  rows=60175
`
	if out != want {
		t.Fatalf("profile output =\n%s\nwant\n%s", out, want)
	}
	if FormatProfile(nil) != "(no profile)\n" {
		t.Fatal("nil profile must render a placeholder")
	}
}

// TestSpanConcurrentCounters: counter methods and Snapshot must be safe
// under concurrent use (runs under -race in make race).
func TestSpanConcurrentCounters(t *testing.T) {
	tr := New(4)
	sp := tr.Start("join", "")
	tr.EndScope(sp)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				sp.AddRows(1, 1)
				sp.AddBusy(time.Microsecond)
				sp.Merge(&metrics.Snapshot{metrics.RegLevelChanges: 1, metrics.RegMaxLevel: int64(i % 8), metrics.SpilledPages + 3: 1})
				_ = sp.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := sp.Snapshot()
	if lz4 := snap.Snapshot[metrics.SpilledPages+3]; snap.RowsOut != 4000 || lz4 != 4000 {
		t.Fatalf("lost updates: rows=%d lz4 pages=%d", snap.RowsOut, lz4)
	}
	if got := snap.Snapshot[metrics.RegMaxLevel]; got != 7 {
		t.Fatalf("reg max level = %d, want 7", got)
	}
	if got := snap.Snapshot[metrics.RegLevelChanges]; got != 4000 {
		t.Fatalf("reg level changes = %d, want 4000", got)
	}
}

// TestSpanSnapshotJSON: a span serializes as one flat object — identity and
// timing, then its non-zero counters under their table keys, flags as
// booleans; zero counters are left out.
func TestSpanSnapshotJSON(t *testing.T) {
	tr := New(1)
	sp := tr.Start("agg", "g")
	tr.EndScope(sp)
	sp.AddRows(4, 1)
	sp.Merge(&metrics.Snapshot{metrics.SpilledBytes: 4096, metrics.Partitioned: 1, metrics.SpillStallNanos: 7, metrics.SpilledPages + 3: 2})
	b, err := json.Marshal(tr.Snapshots())
	if err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("span JSON does not parse: %v\n%s", err, b)
	}
	want := map[string]any{
		"id": 0.0, "parent": -1.0, "op": "agg", "label": "g",
		"rows_out": 4.0, "batches_out": 1.0,
		"spilled": true, "partitioned": true,
		"spilled_bytes": 4096.0, "spill_stall_ns": 7.0, "spilled_pages_lz4": 2.0,
	}
	for k, v := range want {
		if got[0][k] != v {
			t.Errorf("span[%q] = %v, want %v\n%s", k, got[0][k], v, b)
		}
	}
	if _, ok := got[0]["written_bytes"]; ok {
		t.Errorf("zero counter written_bytes was not omitted:\n%s", b)
	}
}

package colstore

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/iosched"
	"github.com/spilly-db/spilly/internal/nvmesim"
)

func testArray() *nvmesim.Array {
	return nvmesim.New(4, nvmesim.DeviceSpec{
		ReadBandwidth:  4e9,
		WriteBandwidth: 2e9,
		Latency:        10 * time.Microsecond,
	}, nvmesim.RealClock{})
}

func buildTable(t *testing.T, rows, groupSize int) *MemTable {
	t.Helper()
	schema := data.NewSchema(
		data.ColumnDef{Name: "id", Type: data.Int64},
		data.ColumnDef{Name: "qty", Type: data.Int64},
		data.ColumnDef{Name: "price", Type: data.Float64},
		data.ColumnDef{Name: "flag", Type: data.String},
		data.ColumnDef{Name: "comment", Type: data.String},
	)
	mt := NewMemTable("test", schema, groupSize)
	b := data.NewBatch(schema, rows)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < rows; i++ {
		b.Cols[0].I = append(b.Cols[0].I, int64(i))                     // delta-friendly
		b.Cols[1].I = append(b.Cols[1].I, int64(i%5))                   // rle-friendly-ish
		b.Cols[2].F = append(b.Cols[2].F, float64(i)*1.5)               // raw floats
		b.Cols[3].S = append(b.Cols[3].S, []string{"A", "N", "R"}[i%3]) // dict
		b.Cols[4].S = append(b.Cols[4].S, fmt.Sprintf("comment-%d-%d", i, rng.Intn(100)))
	}
	b.SetLen(rows)
	mt.Append(b)
	return mt
}

func scanAll(t *testing.T, tbl Table, proj []int, workers int) []*data.Batch {
	t.Helper()
	var cursor atomic.Int64
	var mu sync.Mutex
	var out []*data.Batch
	var wg sync.WaitGroup
	schema := &data.Schema{}
	for _, c := range proj {
		schema.Cols = append(schema.Cols, tbl.Schema().Cols[c])
	}
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := tbl.NewReader(proj, &cursor)
			for {
				b := data.NewBatch(schema, 0)
				n, err := r.Next(b)
				if err != nil {
					errs[w] = err
					return
				}
				if n == 0 {
					return
				}
				// The columns are the reader's until its next Next: keep a copy.
				for i := range b.Cols {
					c := &b.Cols[i]
					c.I, c.F, c.S = slices.Clone(c.I), slices.Clone(c.F), slices.Clone(c.S)
				}
				mu.Lock()
				out = append(out, b)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func checkScan(t *testing.T, batches []*data.Batch, rows int) {
	t.Helper()
	seen := map[int64]bool{}
	total := 0
	for _, b := range batches {
		total += b.Len()
		for r := 0; r < b.Len(); r++ {
			id := b.Cols[0].I[r]
			if seen[id] {
				t.Fatalf("row %d scanned twice", id)
			}
			seen[id] = true
			if b.Cols[1].I[r] != id%5 {
				t.Fatalf("row %d qty mismatch", id)
			}
			if b.Cols[2].F[r] != float64(id)*1.5 {
				t.Fatalf("row %d price mismatch", id)
			}
			if want := []string{"A", "N", "R"}[id%3]; b.Cols[3].S[r] != want {
				t.Fatalf("row %d flag %q want %q", id, b.Cols[3].S[r], want)
			}
		}
	}
	if total != rows {
		t.Fatalf("scanned %d rows, want %d", total, rows)
	}
}

func TestMemTableScan(t *testing.T) {
	mt := buildTable(t, 10000, 1024)
	if mt.Groups() != 10 {
		t.Fatalf("Groups = %d", mt.Groups())
	}
	checkScan(t, scanAll(t, mt, []int{0, 1, 2, 3, 4}, 3), 10000)
}

func TestDiskTableScan(t *testing.T) {
	mt := buildTable(t, 10000, 1024)
	store := NewStore(testArray(), nil)
	dt, err := store.WriteTable(mt)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Rows() != 10000 || dt.Groups() != 10 {
		t.Fatalf("disk table shape: rows=%d groups=%d", dt.Rows(), dt.Groups())
	}
	checkScan(t, scanAll(t, dt, []int{0, 1, 2, 3, 4}, 3), 10000)
}

func TestDiskTableProjection(t *testing.T) {
	mt := buildTable(t, 5000, 512)
	store := NewStore(testArray(), nil)
	dt, err := store.WriteTable(mt)
	if err != nil {
		t.Fatal(err)
	}
	// Project only id and flag; column order in the batch follows proj.
	batches := scanAll(t, dt, []int{0, 3}, 2)
	total := 0
	for _, b := range batches {
		total += b.Len()
		for r := 0; r < b.Len(); r++ {
			id := b.Cols[0].I[r]
			if want := []string{"A", "N", "R"}[id%3]; b.Cols[1].S[r] != want {
				t.Fatalf("projection mismatch at id %d", id)
			}
		}
	}
	if total != 5000 {
		t.Fatalf("scanned %d rows", total)
	}
}

func TestCompressionRatio(t *testing.T) {
	mt := buildTable(t, 20000, 4096)
	store := NewStore(testArray(), nil)
	dt, err := store.WriteTable(mt)
	if err != nil {
		t.Fatal(err)
	}
	if r := dt.CompressionRatio(); r < 1.5 {
		t.Fatalf("compression ratio %.2f, want >= 1.5 (§5.2 reports ~3x)", r)
	}
}

func TestChunksStripedAcrossDevices(t *testing.T) {
	mt := buildTable(t, 10000, 1024)
	store := NewStore(testArray(), nil)
	dt, err := store.WriteTable(mt)
	if err != nil {
		t.Fatal(err)
	}
	devs := map[int]int{}
	for _, g := range dt.groups {
		for _, c := range g.chunks {
			devs[c.Loc.Device()]++
		}
	}
	if len(devs) != 4 {
		t.Fatalf("chunks landed on %d of 4 devices: %v", len(devs), devs)
	}
}

func TestBufferCache(t *testing.T) {
	mt := buildTable(t, 5000, 512)
	cache := NewCache(64 << 20)
	store := NewStore(testArray(), cache)
	dt, err := store.WriteTable(mt)
	if err != nil {
		t.Fatal(err)
	}
	checkScan(t, scanAll(t, dt, []int{0, 1, 2, 3, 4}, 2), 5000)
	misses1 := cache.Stats().Misses
	before := store.Array().Stats().BytesRead
	checkScan(t, scanAll(t, dt, []int{0, 1, 2, 3, 4}, 2), 5000)
	s2 := cache.Stats()
	if s2.Misses != misses1 {
		t.Fatalf("hot scan missed the cache: %d -> %d misses", misses1, s2.Misses)
	}
	if s2.Hits == 0 {
		t.Fatal("hot scan recorded no cache hits")
	}
	if got := store.Array().Stats().BytesRead; got != before {
		t.Fatalf("hot scan read %d bytes from the array", got-before)
	}
	cache.Clear()
	checkScan(t, scanAll(t, dt, []int{0, 1, 2, 3, 4}, 2), 5000)
	if got := store.Array().Stats().BytesRead; got == before {
		t.Fatal("cold scan after Clear did not hit the array")
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(16 << 10) // 1 KiB per shard
	for i := 0; i < 200; i++ {
		c.Put(nvmesim.MakeLoc(0, int64(i)*512, 512), make([]byte, 300))
	}
	if used := c.Stats().Used; used > 16<<10 {
		t.Fatalf("cache over capacity: %d", used)
	}
	// A block larger than a shard's capacity is not cached, and the
	// refusal is counted so the per-shard bound is observable.
	c.Put(nvmesim.MakeLoc(1, 0, 512), make([]byte, 2000))
	if _, ok := c.Get(nvmesim.MakeLoc(1, 0, 512)); ok {
		t.Fatal("oversized block was cached")
	}
	if n := c.Stats().Oversized; n != 1 {
		t.Fatalf("Oversized = %d, want 1", n)
	}
}

// TestCacheConcurrent hammers the sharded cache from many goroutines
// (run under -race to verify the striping).
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				loc := nvmesim.MakeLoc(w%4, int64(i)*512, 512)
				if i%2 == 0 {
					c.Put(loc, make([]byte, 256))
				} else {
					c.Get(loc)
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
	c.Clear()
	if s := c.Stats(); s.Used != 0 || s.Blocks != 0 {
		t.Fatalf("Clear left %d bytes / %d blocks", s.Used, s.Blocks)
	}
}

func TestReadErrorSurfaces(t *testing.T) {
	mt := buildTable(t, 5000, 512)
	arr := testArray()
	store := NewStore(arr, nil)
	dt, err := store.WriteTable(mt)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		arr.InjectFailures(d, 1000)
	}
	var cursor atomic.Int64
	r := dt.NewReader([]int{0}, &cursor)
	b := data.NewBatch(data.NewSchema(data.ColumnDef{Name: "id", Type: data.Int64}), 0)
	if _, err := r.Next(b); err == nil {
		t.Fatal("injected read failure did not surface")
	}
}

// TestReadErrorStickyAndDrained: after a failed group read the error is
// sticky, the reader's ring is quiesced, and no buffers stay referenced —
// the regression test for the error path leaking in-flight reads.
func TestReadErrorStickyAndDrained(t *testing.T) {
	mt := buildTable(t, 5000, 512)
	arr := testArray()
	store := NewStore(arr, nil)
	dt, err := store.WriteTable(mt)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		arr.InjectFailures(d, 1000)
	}
	var cursor atomic.Int64
	r := dt.NewReader([]int{0, 1, 2}, &cursor).(*diskReader)
	b := data.NewBatch(data.NewSchema(
		data.ColumnDef{Name: "id", Type: data.Int64},
		data.ColumnDef{Name: "qty", Type: data.Int64},
		data.ColumnDef{Name: "price", Type: data.Float64},
	), 0)
	_, err = r.Next(b)
	if err == nil {
		t.Fatal("injected read failure did not surface")
	}
	if _, err2 := r.Next(b); err2 != err {
		t.Fatalf("error not sticky: first %v, then %v", err, err2)
	}
	if n := r.ring.Outstanding(); n != 0 {
		t.Fatalf("%d reads still outstanding after failure", n)
	}
	if len(r.slots) != 0 || len(r.inflight) != 0 {
		t.Fatalf("failed reader still references %d window slots / %d inflight groups",
			len(r.slots), len(r.inflight))
	}
}

// TestReaderCloseIdempotent: Close quiesces a mid-scan reader's I/O, is
// safe to call twice, and a later Next reports end of stream.
func TestReaderCloseIdempotent(t *testing.T) {
	mt := buildTable(t, 5000, 512)
	store := NewStore(testArray(), nil)
	dt, err := store.WriteTable(mt)
	if err != nil {
		t.Fatal(err)
	}
	var cursor atomic.Int64
	r := dt.NewReader([]int{0}, &cursor).(*diskReader)
	b := data.NewBatch(data.NewSchema(data.ColumnDef{Name: "id", Type: data.Int64}), 0)
	if _, err := r.Next(b); err != nil { // leaves lookahead groups in flight
		t.Fatal(err)
	}
	r.Close()
	r.Close()
	if n := r.ring.Outstanding(); n != 0 {
		t.Fatalf("%d reads still outstanding after Close", n)
	}
	if n, err := r.Next(b); n != 0 || err != nil {
		t.Fatalf("Next after Close = (%d, %v), want (0, nil)", n, err)
	}
}

// TestReadErrorUnderSharedScheduler: when scan reads route through the
// shared I/O scheduler, the error path must also cancel the reads still
// deferred in the scheduler's queues.
func TestReadErrorUnderSharedScheduler(t *testing.T) {
	mt := buildTable(t, 20000, 512)
	arr := testArray()
	store := NewStore(arr, nil)
	sched := iosched.New(arr, iosched.Config{DepthTarget: 2})
	store.SetIOSched(sched)
	dt, err := store.WriteTable(mt)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		arr.InjectFailures(d, 10000)
	}
	var cursor atomic.Int64
	r := dt.NewReaderOpts([]int{0, 1, 2, 3, 4}, &cursor, ScanOpts{Query: 7, Depth: 8}).(*diskReader)
	b := data.NewBatch(mt.Schema(), 0)
	if _, err := r.Next(b); err == nil {
		t.Fatal("injected read failure did not surface")
	}
	if n := r.ring.Outstanding(); n != 0 {
		t.Fatalf("%d reads still outstanding after failure", n)
	}
	st := sched.Stats()
	if st.Queued != 0 {
		t.Fatalf("%d reads still deferred in the shared scheduler", st.Queued)
	}
}

func TestRLEAndDictChosen(t *testing.T) {
	// Constant column must RLE to a tiny chunk.
	con := make([]int64, 10000)
	col := data.Column{Type: data.Int64, I: con}
	enc := EncodeChunk(nil, &col, 0, len(con))
	if len(enc) > 64 {
		t.Fatalf("constant int chunk encoded to %d bytes", len(enc))
	}
	// Low-cardinality strings must dictionary-encode well below raw size.
	ss := make([]string, 10000)
	for i := range ss {
		ss[i] = []string{"AIR", "RAIL", "TRUCK"}[i%3]
	}
	scol := data.Column{Type: data.String, S: ss}
	senc := EncodeChunk(nil, &scol, 0, len(ss))
	if len(senc) > 2*len(ss) {
		t.Fatalf("dict string chunk encoded to %d bytes", len(senc))
	}
}

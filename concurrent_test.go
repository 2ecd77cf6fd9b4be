package spilly

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/chaos"
	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/exec"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/tpch"
)

// loadEngine opens an engine over a small TPC-H load. Scale factor 0.01
// is the smallest load at which the big joins outgrow the tight budgets
// these tests use and actually spill.
func loadEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTPCH(0.01, false); err != nil {
		t.Fatal(err)
	}
	return eng
}

// waitUntil polls cond for up to 30s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertArrayDrained asserts the spill array holds no live extents or
// leases once the engine is idle — the no-unbounded-growth half of the
// lease design — and that the governor has no outstanding grants.
func assertArrayDrained(t *testing.T, eng *Engine) {
	t.Helper()
	if n := eng.SpillArray().LiveExtents(); n != 0 {
		t.Errorf("spill array holds %d live extents after all queries finished", n)
	}
	if n := eng.SpillArray().Leases(); n != 0 {
		t.Errorf("%d spill leases still live after all queries finished", n)
	}
	if g := eng.GovernorStats(); g.Granted != 0 || g.Active != 0 || g.Queued != 0 {
		t.Errorf("governor not drained: %+v", g)
	}
}

// TestBufferCacheColdWarmBitIdentical runs every TPC-H query twice over
// tables on the array: cold, right after ClearCaches empties the table
// buffer cache, and warm, with its scans served from that cache. The budget
// is tight enough that the big joins spill. Both runs must be bit-identical,
// and once the sweep ends the spill array and the governor must be drained.
func TestBufferCacheColdWarmBitIdentical(t *testing.T) {
	eng, err := Open(Config{
		Workers:      2,
		MemoryBudget: 256 << 10,
		Compression:  true,
		CacheBytes:   64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTPCH(0.01, true); err != nil {
		t.Fatal(err)
	}
	var spilled int64
	for q := 1; q <= tpch.NumQueries; q++ {
		t.Run(fmt.Sprintf("Q%d", q), func(t *testing.T) {
			eng.ClearCaches()
			if bc := eng.BufferCacheStats(); bc.Used != 0 || bc.Blocks != 0 {
				t.Fatalf("buffer cache holds %d blocks (%d bytes) after ClearCaches", bc.Blocks, bc.Used)
			}
			cold, err := eng.RunTPCH(q)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			spilled += cold.Stats.SpilledBytes
			hits := eng.BufferCacheStats().Hits
			warm, err := eng.RunTPCH(q)
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			if eng.BufferCacheStats().Hits == hits {
				t.Error("warm run never hit the buffer cache")
			}
			if chaos.Fingerprint(warm.Batch) != chaos.Fingerprint(cold.Batch) {
				t.Error("warm result differs from cold run")
			}
		})
	}
	if spilled == 0 {
		t.Error("no query spilled: the budget no longer exercises the spill path")
	}
	assertArrayDrained(t, eng)
}

// spillCtx builds a spilling execution context over the shared array —
// the per-query state the engine would hand a spilling query, including
// its own lease on the common spill space.
func spillCtx(arr *nvmesim.Array) *exec.Ctx {
	return &exec.Ctx{
		Workers:     2,
		Budget:      pages.NewBudget(128 << 10),
		PageSize:    16 << 10,
		Partitions:  16,
		PartitionAt: 0.4,
		Spill:       &core.SpillConfig{Array: arr, Lease: arr.NewLease(), Compress: true},
		Stats:       &exec.Stats{},
	}
}

func spillArray() *nvmesim.Array {
	return nvmesim.New(2, nvmesim.DeviceSpec{
		ReadBandwidth:  4e9,
		WriteBandwidth: 2e9,
		Latency:        20 * time.Microsecond,
	}, nvmesim.RealClock{})
}

// TestOverlappingSpillQueriesKeepTheirSpill is the regression test for the
// e.spillArr.Reset() clobber bug: the engine used to begin every query by
// wiping the whole shared spill array, so a query starting while another
// was between its spill phase (1) and readback phase (2) destroyed the
// first query's partitions. The schedule here reproduces the exact window:
// query A spills, and only then — with A's spilled partitions live and
// unread — query B starts on the same array, spills, and runs to
// completion. Both must return bit-identical results to serial runs, and
// freeing each query's lease must leave the array empty.
func TestOverlappingSpillQueriesKeepTheirSpill(t *testing.T) {
	db := tpch.NewMemDB(0.01)

	// Serial reference runs, one private array each.
	serial := func(q int) (string, int64) {
		ctx := spillCtx(spillArray())
		defer ctx.Close()
		node, err := tpch.BuildQuery(ctx, db, q)
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Collect(ctx, node)
		if err != nil {
			t.Fatalf("serial Q%d: %v", q, err)
		}
		return chaos.Fingerprint(out), ctx.Spill.Lease.LiveBytes()
	}
	wantQ9, spilled9 := serial(9)
	wantQ12, spilled12 := serial(12)
	if spilled9 == 0 || spilled12 == 0 {
		t.Fatalf("budget not tight enough: Q9 spilled %d bytes, Q12 %d; the overlap window needs live spill data",
			spilled9, spilled12)
	}

	arr := spillArray()
	ctxA := spillCtx(arr)
	type result struct {
		fp  string
		err error
	}
	aDone := make(chan result, 1)
	go func() {
		node, err := tpch.BuildQuery(ctxA, db, 9)
		if err != nil {
			aDone <- result{err: err}
			return
		}
		out, err := exec.Collect(ctxA, node)
		if err != nil {
			aDone <- result{err: err}
			return
		}
		aDone <- result{fp: chaos.Fingerprint(out)}
	}()
	// Barrier: wait until A holds live spilled partitions on the shared
	// array. An array wipe past this point (the old behavior) destroys
	// data A still needs for phase 2.
	waitUntil(t, "query A to spill", func() bool {
		return ctxA.Spill.Lease.LiveBytes() > 0
	})

	ctxB := spillCtx(arr)
	node, err := tpch.BuildQuery(ctxB, db, 12)
	if err != nil {
		t.Fatal(err)
	}
	outB, errB := exec.Collect(ctxB, node)
	if errB != nil {
		t.Fatalf("overlapped Q12: %v", errB)
	}
	if ctxB.Spill.Lease.LiveBytes() == 0 {
		t.Error("overlapped Q12 did not spill; the shared-array overlap was not exercised")
	}
	fpB := chaos.Fingerprint(outB)

	a := <-aDone
	if a.err != nil {
		t.Fatalf("overlapped Q9: %v", a.err)
	}
	if a.fp != wantQ9 {
		t.Error("overlapped Q9 result differs from serial run (spill clobbered?)")
	}
	if fpB != wantQ12 {
		t.Error("overlapped Q12 result differs from serial run")
	}
	ctxA.Close()
	ctxB.Close()
	if n := arr.LiveExtents(); n != 0 {
		t.Errorf("%d extents live after both queries closed", n)
	}
	if n := arr.Leases(); n != 0 {
		t.Errorf("%d leases live after both queries closed", n)
	}
}

// stressConfig pins the Umami tuning so serial and concurrent runs use
// identical partitioning regardless of grant size; only the per-query
// memory budget differs, which changes when operators spill but not what
// they compute.
func stressConfig() Config {
	return Config{
		Workers:      2,
		MemoryBudget: 128 << 10, // tight enough that the big queries spill
		MemoryFloor:  64 << 10,
		PageSize:     8 << 10,
		Partitions:   16,
		Compression:  true,
	}
}

// raceCPUFactor is how many times slower the engine's CPU work runs in this
// test binary than in a plain build: 1, or more under the race detector
// (race_test.go).
var raceCPUFactor = 1.0

// stressQueries is the mixed workload: aggregations, multi-join pipelines,
// string-heavy joins, and sorts — the spill-heavy spread of TPC-H.
var stressQueries = []int{1, 3, 5, 9, 12, 13, 18, 21}

// TestConcurrentQueriesStress runs 8 mixed TPC-H queries concurrently
// through the admission governor under a spill-forcing budget and requires
// every result to be bit-identical to its serial run, the governor to end
// with zero outstanding grants, and the spill array's live-extent count to
// return to zero.
func TestConcurrentQueriesStress(t *testing.T) {
	eng := loadEngine(t, stressConfig())

	// Serial baselines (also warms table state and pools).
	want := map[int]string{}
	spilled := false
	for _, q := range stressQueries {
		res, err := eng.RunTPCH(q)
		if err != nil {
			t.Fatalf("serial Q%d: %v", q, err)
		}
		want[q] = chaos.Fingerprint(res.Batch)
		spilled = spilled || res.Stats.SpilledBytes > 0
	}
	if !spilled {
		t.Fatal("no serial query spilled; budget not tight enough to exercise concurrency over spill state")
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(stressQueries))
	for _, q := range stressQueries {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			res, err := eng.RunTPCH(q)
			if err != nil {
				errs <- fmt.Errorf("concurrent Q%d: %w", q, err)
				return
			}
			if got := chaos.Fingerprint(res.Batch); got != want[q] {
				errs <- fmt.Errorf("concurrent Q%d result differs from serial run", q)
			}
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	g := eng.GovernorStats()
	if g.Admitted < int64(2*len(stressQueries)) {
		t.Errorf("governor admitted %d queries, want %d", g.Admitted, 2*len(stressQueries))
	}
	assertArrayDrained(t, eng)
}

// TestConcurrentStatsApprox checks the approximate-attribution marking:
// overlapping queries get AllocApprox, a quiet engine does not.
func TestConcurrentStatsApprox(t *testing.T) {
	eng := loadEngine(t, stressConfig())
	res, err := eng.RunTPCH(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AllocApprox {
		t.Error("quiet-engine query marked AllocApprox")
	}
	if res.Stats.MemoryGrant != 128<<10 {
		t.Errorf("idle MemoryGrant = %d, want the full budget", res.Stats.MemoryGrant)
	}

	var wg sync.WaitGroup
	approx := make([]bool, 4)
	for i := range approx {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.RunTPCH(1)
			if err == nil {
				approx[i] = res.Stats.AllocApprox
			}
		}(i)
	}
	wg.Wait()
	any := false
	for _, a := range approx {
		any = any || a
	}
	if !any {
		t.Error("no concurrent query marked AllocApprox")
	}
}

// TestConcurrentSpillsShareRegulatorSeed: four spilling queries run at once
// on one engine, every one of their operators' regulators starting from and
// writing back to the engine's regulator seed, and each result must be
// bit-identical to its serial run. The queries are the aggregation and join
// microbenchmarks, which spill their whole input — enough blocks per worker
// that the regulator measures completed writes — onto a narrow, slowed
// array, so the seed settles above raw. A second engine opened in the same
// process must still start its first spill raw: the seed belongs to the
// engine.
//
// "Slowed" has to hold against the CPU the regulator measures, or it
// oscillates between raw and the first level: an LZ4 pass dearer than the
// writes it saves steps it down, and the seed takes whichever level the
// last buffer to finish stopped at. The race detector slows the operators
// and the codecs by up to raceCPUFactor and the simulated device not at all,
// so the writes are slowed by that factor too.
func TestConcurrentSpillsShareRegulatorSeed(t *testing.T) {
	cfg := stressConfig()
	cfg.SpillDevices = 1
	cfg.Device = DefaultDevice.Scaled(0.1)
	cfg.Device.WriteBandwidth /= raceCPUFactor
	plans := []func(*Engine) exec.Node{
		(*Engine).AggMicroPlan, (*Engine).JoinMicroPlan, (*Engine).AggMicroPlan, (*Engine).JoinMicroPlan,
	}
	eng := loadEngine(t, cfg)

	want := make([]string, len(plans))
	for i, plan := range plans[:2] {
		res, err := eng.Run(plan(eng))
		if err != nil {
			t.Fatalf("serial plan %d: %v", i, err)
		}
		if res.Stats.SpilledBytes == 0 {
			t.Fatalf("serial plan %d did not spill", i)
		}
		want[i], want[i+2] = chaos.Fingerprint(res.Batch), chaos.Fingerprint(res.Batch)
	}
	if eng.regSeed.Level() == 0 {
		t.Fatal("the serial spills left the seed at raw on a slowed one-device array")
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(plans))
	for i, plan := range plans {
		wg.Add(1)
		go func(i int, plan func(*Engine) exec.Node) {
			defer wg.Done()
			res, err := eng.Run(plan(eng))
			switch {
			case err != nil:
				errs <- fmt.Errorf("concurrent plan %d: %w", i, err)
			case res.Stats.SpilledBytes == 0:
				errs <- fmt.Errorf("concurrent plan %d did not spill", i)
			case chaos.Fingerprint(res.Batch) != want[i]:
				errs <- fmt.Errorf("concurrent plan %d result differs from serial run", i)
			}
		}(i, plan)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	assertArrayDrained(t, eng)

	fresh := loadEngine(t, cfg)
	if fresh.regSeed.Level() != 0 {
		t.Fatalf("a new engine's seed starts at level %d", fresh.regSeed.Level())
	}
	res, err := fresh.Run(plans[0](fresh))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Schemes["raw"] == 0 {
		t.Errorf("a new engine's first spill wrote no raw page (%v): it started from another engine's level", res.Stats.Schemes)
	}
	if chaos.Fingerprint(res.Batch) != want[0] {
		t.Error("the new engine's result differs from the first engine's")
	}
}

// slowAdmissionConfig builds an engine whose whole budget is pinned by a
// single query (floor == budget, so admission is strictly serial) and
// whose simulated SSDs are slow enough that a spilling holder query stays
// in flight for a long, schedulable window.
func slowAdmissionConfig() Config {
	return Config{
		Workers:      2,
		MemoryBudget: 128 << 10,
		MemoryFloor:  128 << 10,
		PageSize:     8 << 10,
		Partitions:   16,
		Compression:  true,
		Device: DeviceSpec{
			ReadBandwidth:  8e6,
			WriteBandwidth: 4e6,
			Latency:        200 * time.Microsecond,
		},
	}
}

// holdBudget starts a spill-heavy query that pins the engine's whole
// budget and returns once the governor shows it admitted; the returned
// channel yields its error when it finishes.
func holdBudget(t *testing.T, eng *Engine) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := eng.RunTPCH(9)
		done <- err
	}()
	waitUntil(t, "holder admission", func() bool { return eng.GovernorStats().Active == 1 })
	return done
}

// TestAdmissionCancelWhileQueued: a query canceled during its admission
// wait must return a *QueryError wrapping context.Canceled, release its
// queue slot, and leave the governor balanced.
func TestAdmissionCancelWhileQueued(t *testing.T) {
	eng := loadEngine(t, slowAdmissionConfig())
	holdDone := holdBudget(t, eng)

	goCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	qErr := make(chan error, 1)
	go func() {
		_, err := eng.RunTPCHContext(goCtx, 12)
		qErr <- err
	}()
	waitUntil(t, "second query to queue", func() bool { return eng.GovernorStats().Queued == 1 })
	cancel()

	err := <-qErr
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("canceled admission returned %v (%T), want *QueryError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryError does not wrap context.Canceled: %v", err)
	}
	if qe.Op != "admit" {
		t.Errorf("QueryError.Op = %q, want \"admit\"", qe.Op)
	}
	waitUntil(t, "queue slot release", func() bool { return eng.GovernorStats().Queued == 0 })
	if err := <-holdDone; err != nil {
		t.Fatalf("holder query: %v", err)
	}
	assertArrayDrained(t, eng)
}

// TestAdmissionTimeout: a query that waits out Config.AdmitTimeout fails
// with the structured "admission queue timeout" QueryError instead of OOM.
func TestAdmissionTimeout(t *testing.T) {
	cfg := slowAdmissionConfig()
	cfg.AdmitTimeout = 50 * time.Millisecond
	eng := loadEngine(t, cfg)
	holdDone := holdBudget(t, eng)

	_, err := eng.RunTPCH(12)
	if waitErr := <-holdDone; waitErr != nil {
		t.Fatalf("holder query: %v", waitErr)
	}
	if err == nil {
		t.Fatal("second query admitted despite the holder pinning the whole budget")
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("timed-out admission returned %v (%T), want *QueryError", err, err)
	}
	if !errors.Is(err, pages.ErrAdmissionTimeout) {
		t.Fatalf("QueryError does not wrap ErrAdmissionTimeout: %v", err)
	}
	if !strings.Contains(err.Error(), "admission queue timeout") {
		t.Errorf("error message %q misses %q", err.Error(), "admission queue timeout")
	}
	if g := eng.GovernorStats(); g.Timeouts != 1 {
		t.Errorf("governor Timeouts = %d, want 1", g.Timeouts)
	}
	assertArrayDrained(t, eng)
}

// TestCatalogConcurrentRegistration exercises the catalog under -race:
// a loader re-registering tables while queries plan and run against the
// snapshot view. Before the RWMutex this was a data race on e.tables.
func TestCatalogConcurrentRegistration(t *testing.T) {
	eng := loadEngine(t, Config{Workers: 2})
	stop := make(chan struct{})
	loaderDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				loaderDone <- nil
				return
			default:
			}
			// Same scale factor: identical data, so in-flight queries
			// keep producing correct results off their snapshots.
			if err := eng.LoadTPCH(0.005, false); err != nil {
				loaderDone <- err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if _, err := eng.RunTPCH(1); err != nil {
					errs <- fmt.Errorf("query during registration: %w", err)
					return
				}
				if _, err := eng.Table("lineitem"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-loaderDone; err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// verTableRows is sized so a query's scan and sum overlap several
// registrations of the next version.
const verTableRows = 256 << 10

// registerVerTable swaps in version ver of the "ver" table: verTableRows
// rows, every value float64(ver).
func registerVerTable(eng *Engine, ver int64) {
	sch := NewSchema(ColumnDef{Name: "v", Type: Float64})
	mt := NewMemTable("ver", sch, 0)
	b := NewBatch(sch, verTableRows)
	for i := 0; i < verTableRows; i++ {
		b.Cols[0].F = append(b.Cols[0].F, float64(ver))
	}
	b.SetLen(verTableRows)
	mt.Append(b)
	eng.RegisterTable(mt)
}

// TestCatalogVersionRace hammers RegisterTable against running queries
// under the race detector. Every row of table version v holds the value v,
// so a result reveals exactly which snapshot produced it: a query must never
// see a torn snapshot, and a querier that observed version lo registered
// before it planned must never be handed a sum from an older version.
func TestCatalogVersionRace(t *testing.T) {
	eng, err := Open(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	registerVerTable(eng, 1)
	var cur atomic.Int64
	cur.Store(1)

	const versions = 20
	loaderDone := make(chan struct{})
	go func() {
		defer close(loaderDone)
		for v := int64(2); v <= versions; v++ {
			registerVerTable(eng, v)
			cur.Store(v)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := false; !done; {
				select {
				case <-loaderDone:
					done = true // one final pass after the last registration
				default:
				}
				lo := cur.Load()
				tbl, err := eng.Table("ver")
				if err != nil {
					errs <- err
					return
				}
				sc := NewScan(tbl, "v")
				plan := NewAgg(sc, nil, []AggSpec{{Func: Sum, Col: "v", As: "s"}})
				// Twice per snapshot: a plan runs again over the snapshot it
				// was built on, whatever was registered in between.
				for rep := 0; rep < 2; rep++ {
					res, err := eng.Run(plan)
					if err != nil {
						errs <- err
						return
					}
					sum := res.Batch.Cols[0].F[0]
					ver := int64(sum / verTableRows)
					if float64(ver)*verTableRows != sum {
						errs <- fmt.Errorf("sum %v is not a whole version multiple: torn snapshot?", sum)
						return
					}
					if ver < lo {
						errs <- fmt.Errorf("stale result: saw version %d after version %d was registered", ver, lo)
						return
					}
					if hi := cur.Load(); ver > hi+1 {
						errs <- fmt.Errorf("impossible version %d (current %d)", ver, hi)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := eng.SpillArray().Leases(); n != 0 {
		t.Errorf("%d leases live after drain", n)
	}
}

// TestBuildThenRunOnOneContext is the regression test for the budget-swap
// bug: NewCtx → tpch.BuildQuery → RunCtx is a public sequence, and Q11, Q15
// and Q22 run scalar subqueries at build time that register clean-ups
// against the context's budget. Admission used to replace that budget with a
// fresh one for the grant, so under concurrency (grant ≠ whole budget) the
// clean-ups released into a budget that had never been charged and the
// process died with "pages: budget released below zero". The budget is now
// one object that admission resizes: every run succeeds, matches RunTPCH,
// and leaves its context's budget at zero.
func TestBuildThenRunOnOneContext(t *testing.T) {
	eng, err := Open(Config{Workers: 2, MemoryBudget: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTPCH(0.02, false); err != nil {
		t.Fatal(err)
	}
	queries := []int{15, 22, 11}
	want := map[int]string{}
	for _, q := range queries {
		res, err := eng.RunTPCH(q)
		if err != nil {
			t.Fatalf("reference Q%d: %v", q, err)
		}
		want[q] = chaos.Fingerprint(res.Batch)
	}

	const clients, rounds = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds*len(queries))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, q := range queries {
					ctx := eng.NewCtx()
					node, err := tpch.BuildQuery(ctx, eng.TPCH(), q)
					if err != nil {
						ctx.Close()
						errs <- fmt.Errorf("build Q%d: %w", q, err)
						continue
					}
					res, err := eng.RunCtx(ctx, node)
					if err != nil {
						errs <- fmt.Errorf("run Q%d: %w", q, err)
						continue
					}
					if got := chaos.Fingerprint(res.Batch); got != want[q] {
						errs <- fmt.Errorf("Q%d built before admission differs from RunTPCH", q)
					}
					if used := ctx.Budget.Used(); used != 0 {
						errs <- fmt.Errorf("Q%d context ends with %d budget bytes still reserved", q, used)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if g := eng.GovernorStats(); g.Admitted < clients*rounds*int64(len(queries)) {
		t.Errorf("governor admitted %d queries, want at least %d", g.Admitted, clients*rounds*len(queries))
	}
	assertArrayDrained(t, eng)
}

// gateNode is a plan node whose Run reports that the query reached execution
// — admitted and registered — and then holds it there until released.
type gateNode struct {
	exec.Node
	entered, release chan struct{}
}

func newGate(child exec.Node) *gateNode {
	return &gateNode{Node: child, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateNode) Run(ctx *exec.Ctx) (*exec.Stream, error) {
	close(g.entered)
	<-g.release
	return g.Node.Run(ctx)
}

// TestTraceQueryIsGoverned: TraceQuery is the sampler around an ordinary run.
// On a governed engine it queues for a grant behind a query holding the whole
// budget, shows up in the query registry while it runs, and is folded into the
// engine totals and the completed count — it used to run unadmitted on a
// full-budget context of its own and overcommit memory.
func TestTraceQueryIsGoverned(t *testing.T) {
	const budget = 256 << 10
	eng := loadEngine(t, Config{Workers: 2, MemoryBudget: budget, MemoryFloor: budget})

	holder := newGate(eng.AggMicroPlan())
	holdDone := make(chan error, 1)
	go func() {
		_, err := eng.Run(holder)
		holdDone <- err
	}()
	<-holder.entered

	type traced struct {
		res     *Result
		samples int
		err     error
	}
	traceDone := make(chan traced, 1)
	gate := newGate(eng.AggMicroPlan())
	go func() {
		res, samples, err := eng.TraceQuery(gate, 2*time.Millisecond)
		traceDone <- traced{res, len(samples), err}
	}()
	waitUntil(t, "TraceQuery to queue for admission", func() bool { return eng.GovernorStats().Queued == 1 })
	select {
	case <-gate.entered:
		t.Fatal("TraceQuery started executing while another query held the whole budget")
	default:
	}

	close(holder.release)
	if err := <-holdDone; err != nil {
		t.Fatalf("holder query: %v", err)
	}
	<-gate.entered
	if n := eng.ActiveQueries(); n != 1 {
		t.Errorf("ActiveQueries = %d while TraceQuery runs, want 1", n)
	}
	if qs := eng.queriesSnapshot(); len(qs) != 1 || qs[0].Label != "trace" {
		t.Errorf("/queries while TraceQuery runs = %+v, want one entry labeled \"trace\"", qs)
	}
	if g := eng.GovernorStats(); g.Active != 1 || g.Granted != budget {
		t.Errorf("governor while TraceQuery runs: %+v, want one active query holding %d", g, budget)
	}
	rowsBefore := eng.Totals()[metrics.ScannedRows]
	completedBefore := eng.Faults().Snapshot().CompletedQueries

	close(gate.release)
	tr := <-traceDone
	if tr.err != nil {
		t.Fatal(tr.err)
	}
	st := tr.res.Stats
	if st.MemoryGrant != budget || st.AdmissionWait <= 0 {
		t.Errorf("MemoryGrant = %d, AdmissionWait = %v; want %d and a measured wait", st.MemoryGrant, st.AdmissionWait, budget)
	}
	if st.SpilledBytes == 0 || tr.samples == 0 {
		t.Errorf("spilled %d bytes over %d samples; the traced run should spill and be sampled", st.SpilledBytes, tr.samples)
	}
	if got := eng.Totals()[metrics.ScannedRows] - rowsBefore; got != st.ScannedRows || got == 0 {
		t.Errorf("Engine.Totals scanned rows grew by %d, TraceQuery scanned %d", got, st.ScannedRows)
	}
	if got := eng.Faults().Snapshot().CompletedQueries - completedBefore; got != 1 {
		t.Errorf("completed-query count grew by %d, want 1", got)
	}
	assertArrayDrained(t, eng)
}

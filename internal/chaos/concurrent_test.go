package chaos_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	spilly "github.com/spilly-db/spilly"
	"github.com/spilly-db/spilly/internal/chaos"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/tpch"
	"github.com/spilly-db/spilly/internal/uring"
)

// concurrentCfg caps Umami's fan-out well below the defaults and uses the
// smallest load/budget pair at which Q9 and Q12 both spill. Each query still
// derives its partitions from its own grant, so the serial baseline and the
// concurrent runs may partition differently; fingerprints are order-free.
func concurrentCfg() spilly.Config {
	return spilly.Config{
		Workers:      2,
		MemoryBudget: 128 << 10,
		MemoryFloor:  64 << 10,
		PageSize:     8 << 10,
		Partitions:   16,
		Compression:  true,
	}
}

func newConcurrentEngine(t *testing.T) *spilly.Engine {
	t.Helper()
	eng, err := spilly.Open(concurrentCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTPCH(0.01, false); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestConcurrentQueriesUnderTransientFaults combines the two failure
// domains this package and the admission governor each cover alone:
// several queries share the spill array while every device injects
// transient faults. Retried I/O must land in the right query's extents —
// a retry that reallocated from a global cursor (the pre-lease design)
// could interleave two queries' rewrites — so every result must still be
// bit-identical to its serial fault-free run, and recovery must not leak
// extents or leases.
func TestConcurrentQueriesUnderTransientFaults(t *testing.T) {
	queries := []int{9, 12, 9, 12}

	ref := newConcurrentEngine(t)
	want := map[int]string{}
	for _, q := range []int{9, 12} {
		res, err := ref.RunTPCH(q)
		if err != nil {
			t.Fatalf("baseline Q%d: %v", q, err)
		}
		if res.Stats.SpilledBytes == 0 {
			t.Fatalf("baseline Q%d did not spill; faults would not exercise the shared spill path", q)
		}
		want[q] = chaos.Fingerprint(res.Batch)
	}

	eng := newConcurrentEngine(t)
	chaos.Schedule{
		Seed:         7,
		ReadErrRate:  0.05,
		WriteErrRate: 0.05,
		SpikeRate:    0.02,
		SpikeLatency: 200 * time.Microsecond,
		Script: map[int64]nvmesim.FaultKind{
			1: nvmesim.FaultTransient,
			2: nvmesim.FaultTransient,
		},
		ScriptDevice: 3,
	}.Apply(eng.SpillArray())

	var wg sync.WaitGroup
	var retries int64
	var mu sync.Mutex
	errs := make(chan error, len(queries))
	for _, q := range queries {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			res, err := eng.RunTPCH(q)
			if err != nil {
				errs <- fmt.Errorf("Q%d under faults: %w", q, err)
				return
			}
			if got := chaos.Fingerprint(res.Batch); got != want[q] {
				errs <- fmt.Errorf("Q%d result under concurrent faults differs from serial fault-free run", q)
			}
			mu.Lock()
			retries += res.Stats.SpillRetries
			mu.Unlock()
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if retries == 0 {
		t.Error("no spill retries recorded across any query; the schedule injected no faults into the shared spill path")
	}
	if n := eng.SpillArray().LiveExtents(); n != 0 {
		t.Errorf("%d extents live after recovery; fault retries leaked spill space", n)
	}
	if n := eng.SpillArray().Leases(); n != 0 {
		t.Errorf("%d leases live after all queries finished", n)
	}
	if g := eng.GovernorStats(); g.Granted != 0 || g.Active != 0 || g.Queued != 0 {
		t.Errorf("governor not drained after faulted concurrent run: %+v", g)
	}
}

// TestBuildThenAdmitUnderTransientFaults runs the public NewCtx →
// tpch.BuildQuery → RunCtx sequence on one context per query, concurrently
// and under transient faults. Q11, Q15 and Q22 execute scalar subqueries at
// build time, before admission: what they reserved and spilled under the
// whole budget must be released into the same budget, and freed from the
// same lease, that the admitted run then uses at its grant.
func TestBuildThenAdmitUnderTransientFaults(t *testing.T) {
	queries := []int{15, 22, 11}

	ref := newConcurrentEngine(t)
	want := map[int]string{}
	for _, q := range queries {
		res, err := ref.RunTPCH(q)
		if err != nil {
			t.Fatalf("baseline Q%d: %v", q, err)
		}
		want[q] = chaos.Fingerprint(res.Batch)
	}

	eng := newConcurrentEngine(t)
	chaos.Schedule{
		Seed:         11,
		ReadErrRate:  0.05,
		WriteErrRate: 0.05,
		SpikeRate:    0.02,
		SpikeLatency: 200 * time.Microsecond,
	}.Apply(eng.SpillArray())

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*len(queries)*3)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range queries {
				ctx := eng.NewCtx()
				node, err := tpch.BuildQuery(ctx, eng.TPCH(), q)
				if err != nil {
					ctx.Close()
					errs <- fmt.Errorf("build Q%d under faults: %w", q, err)
					continue
				}
				res, err := eng.RunCtx(ctx, node)
				if err != nil {
					errs <- fmt.Errorf("run Q%d under faults: %w", q, err)
					continue
				}
				if got := chaos.Fingerprint(res.Batch); got != want[q] {
					errs <- fmt.Errorf("Q%d built before admission differs from its fault-free RunTPCH result", q)
				}
				if used := ctx.Budget.Used(); used != 0 {
					errs <- fmt.Errorf("Q%d context ends with %d budget bytes still reserved", q, used)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := eng.SpillArray().LiveExtents(); n != 0 {
		t.Errorf("%d extents live after the run", n)
	}
	if n := eng.SpillArray().Leases(); n != 0 {
		t.Errorf("%d leases live after all queries finished", n)
	}
	if g := eng.GovernorStats(); g.Granted != 0 || g.Active != 0 || g.Queued != 0 {
		t.Errorf("governor not drained: %+v", g)
	}
}

// TestMixedClassLoadUnderDeviceChaos drives the shared I/O scheduler with
// its full class mix — table-scan prefetch and promoted demand reads on the
// table array, spill writes and readback demand reads on the spill array —
// from eight concurrent queries while a spill device dies mid-run and both
// arrays inject latency spikes. With parity on, every query must either
// return its exact serial result (healing dead-device readbacks from
// parity) or fail with a structured error naming the device; afterwards
// the scheduler, leases, and governor must all drain to zero.
func TestMixedClassLoadUnderDeviceChaos(t *testing.T) {
	queries := []int{1, 6, 9, 12, 1, 9, 12, 6}

	cfg := concurrentCfg()
	cfg.SpillParity = 2

	newChaosEngine := func() *spilly.Engine {
		eng, err := spilly.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Tables on the NVMe array: scans become real prefetch-class I/O
		// through the table scheduler, not memory reads.
		if err := eng.LoadTPCH(0.01, true); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	ref := newChaosEngine()
	want := map[int]string{}
	spilled := false
	for _, q := range []int{1, 6, 9, 12} {
		res, err := ref.RunTPCH(q)
		if err != nil {
			t.Fatalf("baseline Q%d: %v", q, err)
		}
		want[q] = chaos.Fingerprint(res.Batch)
		spilled = spilled || res.Stats.SpilledBytes > 0
	}
	if !spilled {
		t.Fatal("no baseline query spilled; the mix would not exercise the spill classes")
	}

	eng := newChaosEngine()
	// Spill device 0 dies mid-run; both arrays suffer latency spikes.
	chaos.Schedule{
		Seed:         29,
		KillDevice:   0,
		KillAfterOps: 30,
		SpikeRate:    0.05,
		SpikeLatency: 300 * time.Microsecond,
	}.Apply(eng.SpillArray())
	chaos.Schedule{
		Seed:         31,
		SpikeRate:    0.05,
		SpikeLatency: 300 * time.Microsecond,
	}.Apply(eng.TableArray())

	var wg sync.WaitGroup
	errs := make(chan error, len(queries))
	for _, q := range queries {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			res, err := eng.RunTPCH(q)
			if err != nil {
				var qe *spilly.QueryError
				if !errors.As(err, &qe) {
					errs <- fmt.Errorf("Q%d under device chaos: %w (%T), want exact result or *QueryError", q, err, err)
				} else if qe.Device != 0 {
					errs <- fmt.Errorf("Q%d failed naming device %d, want the dead device 0", q, qe.Device)
				}
				return
			}
			if got := chaos.Fingerprint(res.Batch); got != want[q] {
				errs <- fmt.Errorf("Q%d result under device chaos differs from serial fault-free run", q)
			}
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if n := eng.SpillArray().LiveExtents(); n != 0 {
		t.Errorf("%d spill extents live after the chaos run", n)
	}
	if n := eng.SpillArray().Leases(); n != 0 {
		t.Errorf("%d leases live after all queries finished", n)
	}
	if g := eng.GovernorStats(); g.Granted != 0 || g.Active != 0 || g.Queued != 0 {
		t.Errorf("governor not drained after chaos run: %+v", g)
	}
	snaps := eng.IOSchedSnapshots()
	if len(snaps) != 2 {
		t.Fatalf("expected spill and table schedulers, got %d", len(snaps))
	}
	for _, sn := range snaps {
		if sn.Stats.Queued != 0 || sn.Stats.Inflight != 0 {
			t.Errorf("iosched[%s] not drained: queued=%d inflight=%d",
				sn.Name, sn.Stats.Queued, sn.Stats.Inflight)
		}
	}
	// The mix must actually have exercised the class spectrum: spill writes
	// and readback demand reads on the spill array, scan prefetch on the
	// table array.
	spillC := snaps[0].Stats.Classes
	if spillC[uring.ClassSpillWrite].Dispatched == 0 || spillC[uring.ClassDemand].Dispatched == 0 {
		t.Errorf("spill scheduler missed classes: %+v", spillC)
	}
	tableC := snaps[1].Stats.Classes
	if tableC[uring.ClassPrefetch].Dispatched == 0 {
		t.Errorf("table scheduler saw no prefetch-class scans: %+v", tableC)
	}
}

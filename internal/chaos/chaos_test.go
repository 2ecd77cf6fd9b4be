package chaos_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	spilly "github.com/spilly-db/spilly"
	"github.com/spilly-db/spilly/internal/chaos"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/tpch"
)

// newEngine opens a spilling engine over a small TPC-H load. Q9 under a
// 256 KB budget materializes several joins and must spill, exercising the
// whole write/read-back path the faults target.
func newEngine(t *testing.T, cfg spilly.Config) *spilly.Engine {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.MemoryBudget == 0 {
		cfg.MemoryBudget = 256 << 10
	}
	eng, err := spilly.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTPCH(0.005, false); err != nil {
		t.Fatal(err)
	}
	return eng
}

// input is one query the fault tests run end to end. Q9 spills through hash
// joins and aggregations; "sort" is the ledger's micro_spill external sort,
// which spills sorted runs through the same path.
type input struct {
	name string
	run  func(ctx context.Context, eng *spilly.Engine) (*spilly.Result, error)
}

var (
	q9 = input{"q9", func(ctx context.Context, eng *spilly.Engine) (*spilly.Result, error) {
		return eng.RunTPCHContext(ctx, 9)
	}}
	extSort = input{"sort", func(ctx context.Context, eng *spilly.Engine) (*spilly.Result, error) {
		lineitem, err := eng.Table(tpch.Lineitem)
		if err != nil {
			return nil, err
		}
		return eng.RunContext(ctx, &spilly.ExtSortNode{
			Child: spilly.NewScan(lineitem, "l_orderkey", "l_extendedprice", "l_shipdate", "l_comment"),
			Keys:  []spilly.SortKey{{Col: "l_extendedprice", Desc: true}, {Col: "l_orderkey"}},
		})
	}}
	inputs = []input{q9, extSort}
)

// baseline computes the fault-free reference fingerprint for an input.
func baseline(t *testing.T, in input) string {
	t.Helper()
	eng := newEngine(t, spilly.Config{})
	res, err := in.run(context.Background(), eng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpilledBytes == 0 {
		t.Fatal("reference run did not spill; chaos would not exercise I/O recovery")
	}
	return chaos.Fingerprint(res.Batch)
}

// q1Baseline is the fault-free fingerprint of Q1, which runs in memory.
func q1Baseline(t *testing.T) string {
	t.Helper()
	res, err := newEngine(t, spilly.Config{}).RunTPCH(1)
	if err != nil {
		t.Fatal(err)
	}
	return chaos.Fingerprint(res.Batch)
}

// demotedQ1 caches Q1's result on eng, demotes it to the spill array and
// runs Q1 again, which the cache answers by restoring the demoted result.
func demotedQ1(t *testing.T, eng *spilly.Engine) *spilly.Result {
	t.Helper()
	if _, err := eng.RunTPCH(1); err != nil {
		t.Fatal(err)
	}
	if n := eng.DemoteResultCache(); n != 1 {
		t.Fatalf("demoted %d cached results, want Q1's", n)
	}
	res, err := eng.RunTPCH(1)
	if err != nil {
		t.Fatalf("Q1 with its cached result demoted: %v", err)
	}
	if res.Stats.ResultCacheTier != "nvme" {
		t.Fatalf("Q1 served from tier %q, want its demoted result (nvme)", res.Stats.ResultCacheTier)
	}
	return res
}

// transientFaults is the transient-fault schedule: probabilistic faults well
// above the 1% floor, plus a scripted transient on one device's first two
// requests. A query issues only a few dozen spill I/Os at this scale, so the
// script guarantees the retry path actually runs regardless of how the dice
// land.
var transientFaults = chaos.Schedule{
	Seed:         42,
	ReadErrRate:  0.05,
	WriteErrRate: 0.05,
	SpikeRate:    0.02,
	SpikeLatency: 200 * time.Microsecond,
	Script: map[int64]nvmesim.FaultKind{
		1: nvmesim.FaultTransient,
		2: nvmesim.FaultTransient,
	},
	ScriptDevice: 3,
}

func TestTPCHBitIdenticalUnderTransientFaults(t *testing.T) {
	t.Run("demoted result", func(t *testing.T) {
		want := q1Baseline(t)
		eng := newEngine(t, spilly.Config{ResultCacheBytes: 1 << 20})
		// Q1's result is one block: request 1 on device 0 writes it, and
		// the script fails requests 2 and 3 there, its read and first retry.
		faults := transientFaults
		faults.Script = map[int64]nvmesim.FaultKind{2: nvmesim.FaultTransient, 3: nvmesim.FaultTransient}
		faults.ScriptDevice = 0
		faults.Apply(eng.SpillArray())

		res := demotedQ1(t, eng)
		if got := chaos.Fingerprint(res.Batch); got != want {
			t.Fatalf("restored result under faults differs from fault-free run:\n%s\nvs\n%s", got, want)
		}
		if n := eng.SpillArray().FaultStats(0).ReadErrors; n < 2 {
			t.Fatalf("%d read errors on device 0; the restore's reads were not retried", n)
		}
	})
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			want := baseline(t, in)

			eng := newEngine(t, spilly.Config{})
			transientFaults.Apply(eng.SpillArray())

			res, err := in.run(context.Background(), eng)
			if err != nil {
				t.Fatalf("query under transient faults failed: %v", err)
			}
			if got := chaos.Fingerprint(res.Batch); got != want {
				t.Fatalf("result under faults differs from fault-free run:\n%s\nvs\n%s", got, want)
			}
			if res.Stats.SpillRetries == 0 {
				t.Fatal("no retries recorded; the schedule injected no faults into the spill path")
			}
			if n := eng.Totals(); n[metrics.SpillRetries] == 0 {
				t.Fatal("engine lifetime totals saw no retries")
			}
		})
	}
}

func TestPermanentDeviceFailure(t *testing.T) {
	want := baseline(t, q9)

	eng := newEngine(t, spilly.Config{})
	chaos.Schedule{Seed: 7, KillDevice: 0, KillAfterOps: 20}.Apply(eng.SpillArray())

	type outcome struct {
		res *spilly.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := eng.RunTPCH(9)
		done <- outcome{res, err}
	}()

	var o outcome
	select {
	case o = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("query hung after permanent device failure")
	}
	if o.err == nil {
		// Failover re-striped all writes onto live devices before any
		// data landed on the dead one: the result must still be exact.
		if got := chaos.Fingerprint(o.res.Batch); got != want {
			t.Fatalf("failover run returned wrong rows:\n%s\nvs\n%s", got, want)
		}
	} else {
		// Data already on the device when it died is gone; the query
		// must fail with a structured error naming the device.
		var qe *spilly.QueryError
		if !errors.As(o.err, &qe) {
			t.Fatalf("err = %v (%T), want *QueryError", o.err, o.err)
		}
		if qe.Device != 0 {
			t.Fatalf("QueryError.Device = %d, want 0", qe.Device)
		}
	}

	// A dead device must not poison the engine: heal the array and the
	// same query must succeed exactly.
	chaos.Clear(eng.SpillArray())
	res, err := eng.RunTPCH(9)
	if err != nil {
		t.Fatalf("query after healing failed: %v", err)
	}
	if got := chaos.Fingerprint(res.Batch); got != want {
		t.Fatal("result after healing differs from fault-free run")
	}
}

func TestCancellationAbortsPromptly(t *testing.T) {
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			eng := newEngine(t, spilly.Config{})

			// Already-canceled context: the query must not do any work.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := in.run(ctx, eng); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			var qe *spilly.QueryError
			if _, err := in.run(ctx, eng); !errors.As(err, &qe) {
				t.Fatalf("err = %v, want *QueryError", err)
			}

			// Mid-run deadline: slow the array down with latency spikes so the
			// deadline always lands mid-query, then require a prompt abort.
			chaos.Schedule{
				Seed:         3,
				SpikeRate:    0.5,
				SpikeLatency: time.Millisecond,
			}.Apply(eng.SpillArray())
			dctx, dcancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer dcancel()
			start := time.Now()
			_, err := in.run(dctx, eng)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if elapsed > 10*time.Second {
				t.Fatalf("cancellation took %v; blocking I/O is not observing the context", elapsed)
			}
			if c := eng.Faults().Snapshot(); c.CanceledQueries < 3 {
				t.Fatalf("canceled queries = %d, want 3: %+v", c.CanceledQueries, c)
			}

			// The aborted query must not leak: the engine stays fully usable.
			chaos.Clear(eng.SpillArray())
			if _, err := in.run(context.Background(), eng); err != nil {
				t.Fatalf("query after cancellation failed: %v", err)
			}
		})
	}
}

func TestDeviceFullFailsGracefully(t *testing.T) {
	dev := spilly.DefaultDevice
	dev.Capacity = 8 << 10 // per-device spill area far below Q9's spill volume
	eng := newEngine(t, spilly.Config{Device: dev})

	_, err := eng.RunTPCH(9)
	if err == nil {
		t.Fatal("query succeeded with a spill area it cannot fit in")
	}
	var qe *spilly.QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v (%T), want *QueryError", err, err)
	}
	if !strings.Contains(qe.Hint, "spill capacity") {
		t.Fatalf("QueryError.Hint = %q, want a capacity remediation hint", qe.Hint)
	}
}

func TestDeviceDeathDuringPrefetch(t *testing.T) {
	want := baseline(t, q9)

	// Calibrate how many write requests device 0 absorbs during Q9's spill
	// phase, so the kill can be scheduled just past them — the device then
	// dies while phase-2 readback (including the partition scheduler's
	// prefetched block reads) is under way, not during the write path the
	// permanent-failure test already covers.
	cal := newEngine(t, spilly.Config{})
	calRes, err := cal.RunTPCH(9)
	if err != nil {
		t.Fatal(err)
	}
	d0 := cal.SpillArray().PerDevice()[0]
	if d0.Writes == 0 || d0.Reads == 0 {
		t.Fatalf("device 0 saw %d writes / %d reads; Q9 at this scale no longer exercises readback on it", d0.Writes, d0.Reads)
	}
	if calRes.Stats.PrefetchedPartitions == 0 {
		t.Fatal("no partitions prefetched; the scheduler is not running ahead of phase 2")
	}

	eng := newEngine(t, spilly.Config{})
	chaos.Schedule{Seed: 11, KillDevice: 0, KillAfterOps: d0.Writes + 1}.Apply(eng.SpillArray())

	res, err := eng.RunTPCH(9)
	if err == nil {
		// The run spread its spill across the survivors (or device 0's
		// blocks were all read before the kill threshold): results must
		// still be exact.
		if got := chaos.Fingerprint(res.Batch); got != want {
			t.Fatalf("run with mid-readback death returned wrong rows:\n%s\nvs\n%s", got, want)
		}
	} else {
		// Spilled blocks died with the device: the failure must be the
		// structured spill-read error naming it — whether the read was a
		// consumer's demand read or a prefetch issued partitions ahead —
		// not a hang, panic, or generic error.
		var qe *spilly.QueryError
		if !errors.As(err, &qe) {
			t.Fatalf("err = %v (%T), want *QueryError", err, err)
		}
		if qe.Device != 0 {
			t.Fatalf("QueryError.Device = %d, want 0", qe.Device)
		}
	}

	// The aborted readback must not leak scheduler-owned buffers or budget:
	// heal the array and the same engine must produce the exact result.
	chaos.Clear(eng.SpillArray())
	res, err = eng.RunTPCH(9)
	if err != nil {
		t.Fatalf("query after healing failed: %v", err)
	}
	if got := chaos.Fingerprint(res.Batch); got != want {
		t.Fatal("result after healing differs from fault-free run")
	}
}

// parityEngine opens a spilling engine with spill integrity on: checksummed
// frames plus XOR parity stripes of width 2 (every third spill block is
// parity).
func parityEngine(t *testing.T, cfg spilly.Config) *spilly.Engine {
	t.Helper()
	if cfg.SpillParity == 0 {
		cfg.SpillParity = 2
	}
	return newEngine(t, cfg)
}

func TestSilentCorruptionHealsToExactResult(t *testing.T) {
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			want := baseline(t, in)

			eng := parityEngine(t, spilly.Config{})
			// Every request on device 0 silently flips one bit — reads and
			// writes both. Parity is computed from the in-memory block before
			// the device mangles it, so even write-corrupted blocks rebuild
			// exactly.
			chaos.Schedule{Seed: 21, CorruptRate: 1.0, CorruptDevice: 0}.Apply(eng.SpillArray())

			res, err := in.run(context.Background(), eng)
			if err != nil {
				t.Fatalf("query under silent corruption failed: %v", err)
			}
			if got := chaos.Fingerprint(res.Batch); got != want {
				t.Fatalf("result under corruption differs from fault-free run:\n%s\nvs\n%s", got, want)
			}
			if res.Stats.SpillChecksumErrors == 0 {
				t.Fatal("no checksum errors detected; corruption never reached the spill path")
			}
			if res.Stats.SpillReconstructions == 0 {
				t.Fatal("no blocks reconstructed; corrupted data was served unverified")
			}
			if res.Stats.SpillPagesVerified == 0 {
				t.Fatal("no pages verified; integrity is not armed")
			}
		})
	}
}

func TestTornWritesAndStaleReadsHeal(t *testing.T) {
	want := baseline(t, q9)

	eng := parityEngine(t, spilly.Config{})
	// Torn writes persist only half the block; stale reads serve a
	// neighboring block. Both pass the device's own error reporting and are
	// only caught by frame verification.
	chaos.Schedule{
		Seed:          22,
		TornWriteRate: 0.5,
		StaleReadRate: 0.5,
		CorruptDevice: 0,
	}.Apply(eng.SpillArray())

	res, err := eng.RunTPCH(9)
	if err != nil {
		t.Fatalf("query under torn writes / stale reads failed: %v", err)
	}
	if got := chaos.Fingerprint(res.Batch); got != want {
		t.Fatalf("result under torn/stale faults differs from fault-free run:\n%s\nvs\n%s", got, want)
	}
	if res.Stats.SpillChecksumErrors == 0 || res.Stats.SpillReconstructions == 0 {
		t.Fatalf("torn/stale faults not healed: %d checksum errors, %d reconstructions",
			res.Stats.SpillChecksumErrors, res.Stats.SpillReconstructions)
	}
}

func TestDeviceDeathAfterSpillHealsFromParity(t *testing.T) {
	t.Run("demoted result", func(t *testing.T) {
		want := q1Baseline(t)
		// Q1's result is one block on device 0, its parity on device 1:
		// device 0 dies on the restore's read, and parity rebuilds the block.
		eng := parityEngine(t, spilly.Config{ResultCacheBytes: 1 << 20})
		chaos.Schedule{Seed: 23, KillDevice: 0, KillOnRead: true}.Apply(eng.SpillArray())

		res := demotedQ1(t, eng)
		if got := chaos.Fingerprint(res.Batch); got != want {
			t.Fatalf("restored result after device death differs from fault-free run:\n%s\nvs\n%s", got, want)
		}
		if !eng.SpillArray().FaultStats(0).Dead {
			t.Fatal("device 0 survived; the restore never read the block it held")
		}
	})
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			want := baseline(t, in)

			// Kill device 0 on its first read, when read-back begins: the
			// blocks spilled to it are gone, and with parity on the query
			// must reconstruct every one it reads and still be exact. Spill
			// phases may follow (Q9's ORDER BY can spill a run after the
			// joins' read-backs); their writes fail over to the survivor.
			eng := parityEngine(t, spilly.Config{})
			chaos.Schedule{Seed: 23, KillDevice: 0, KillOnRead: true}.Apply(eng.SpillArray())

			res, err := in.run(context.Background(), eng)
			if err != nil {
				t.Fatalf("query with post-spill device death failed despite parity: %v", err)
			}
			if got := chaos.Fingerprint(res.Batch); got != want {
				t.Fatalf("result after device death differs from fault-free run:\n%s\nvs\n%s", got, want)
			}
			if res.Stats.SpillReconstructions == 0 {
				t.Fatal("no blocks reconstructed; the dead device's data came from nowhere")
			}
		})
	}
}

func TestDoubleDeviceDeathFailsStructured(t *testing.T) {
	want := baseline(t, q9)

	// Three spill devices and stripe width 2 mean every group spans all
	// three. Killing two devices after the spill phase exceeds single-parity
	// redundancy for every group — the query must fail with a structured
	// error naming a dead device and the partition, never return wrong rows.
	cal := parityEngine(t, spilly.Config{SpillDevices: 3})
	if _, err := cal.RunTPCH(9); err != nil {
		t.Fatal(err)
	}
	perDev := cal.SpillArray().PerDevice()

	eng := parityEngine(t, spilly.Config{SpillDevices: 3})
	for dev := 0; dev < 2; dev++ {
		eng.SpillArray().SetFaultPlan(dev, nvmesim.FaultPlan{
			Seed:        31 + int64(dev),
			DieAfterOps: perDev[dev].Writes + 1,
		})
	}

	res, err := eng.RunTPCH(9)
	if err == nil {
		t.Fatalf("query succeeded with two of three spill devices dead; fingerprint match: %v",
			chaos.Fingerprint(res.Batch) == want)
	}
	var qe *spilly.QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v (%T), want *QueryError", err, err)
	}
	if qe.Device != 0 && qe.Device != 1 {
		t.Fatalf("QueryError.Device = %d, want a dead device (0 or 1)", qe.Device)
	}
	if qe.Part < 0 {
		t.Fatalf("QueryError.Part = %d, want the failing partition", qe.Part)
	}

	// The double fault must not poison the engine: heal and run exact.
	chaos.Clear(eng.SpillArray())
	res, err = eng.RunTPCH(9)
	if err != nil {
		t.Fatalf("query after healing failed: %v", err)
	}
	if got := chaos.Fingerprint(res.Batch); got != want {
		t.Fatal("result after healing differs from fault-free run")
	}
}

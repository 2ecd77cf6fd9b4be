package tpch

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/exec"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
)

// budgetedMemCtx is an in-memory context with a budget big enough that
// nothing partitions — every reservation must still be returned.
func budgetedMemCtx() *exec.Ctx {
	return &exec.Ctx{
		Workers: 2,
		Budget:  pages.NewBudget(1 << 30),
		Stats:   &exec.Stats{},
	}
}

// leakSpillCtx mirrors spillingCtx but keeps its own array per query so
// budget accounting is not shared across subtests.
func leakSpillCtx() *exec.Ctx {
	arr := nvmesim.New(2, nvmesim.DeviceSpec{
		ReadBandwidth:  4e9,
		WriteBandwidth: 2e9,
		Latency:        20 * time.Microsecond,
	}, nvmesim.RealClock{})
	return &exec.Ctx{
		Workers:     2,
		Budget:      pages.NewBudget(512 << 10),
		PageSize:    16 << 10,
		Partitions:  16,
		PartitionAt: 0.4,
		Spill:       &core.SpillConfig{Array: arr, Lease: arr.NewLease(), Compress: true},
		Stats:       &exec.Stats{},
	}
}

// TestNoBudgetLeaks runs every TPC-H query in-memory and under forced
// spilling and asserts that, once the query finishes and the context's
// cleanups run, (a) every page-budget reservation has been returned and
// (b) every pooled batch lease was released. A nonzero residue here is
// exactly the class of silent leak the Reserve/Release audit exists to
// catch: a materialized result, extsort run, or free-list page whose
// reservation outlived the query.
func TestNoBudgetLeaks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 22 queries twice")
	}
	modes := []struct {
		name string
		ctx  func() *exec.Ctx
	}{
		{"inmem", budgetedMemCtx},
		{"spill", leakSpillCtx},
	}
	for _, m := range modes {
		for q := 1; q <= NumQueries; q++ {
			t.Run(fmt.Sprintf("%s/Q%d", m.name, q), func(t *testing.T) {
				ctx := m.ctx()
				var arr *nvmesim.Array
				if ctx.Spill != nil {
					arr = ctx.Spill.Array
				}
				out := runQuery(t, ctx, q)
				if out == nil {
					t.Fatal("nil result")
				}
				ctx.Close()
				if used := ctx.Budget.Used(); used != 0 {
					t.Errorf("budget leak: %d bytes still reserved after Close", used)
				}
				if gets, puts := ctx.PoolCounters(); gets != puts {
					t.Errorf("batch pool imbalance: %d gets vs %d puts", gets, puts)
				}
				if arr != nil {
					if n := arr.LiveExtents(); n != 0 {
						t.Errorf("spill extent leak: %d extents live after Close", n)
					}
					if n := arr.Leases(); n != 0 {
						t.Errorf("lease leak: %d leases live after Close", n)
					}
				}
			})
		}
	}
}

// TestCorruptionBeyondRepairNoLeak forces an unrecoverable spill-read
// failure — every read of the single spill device flips a bit, so parity
// reconstruction reads corrupt survivors and re-verification fails — and
// asserts the failing query still returns every budget reservation and
// every pooled batch. Error paths through the readback scheduler are where
// spill buffers historically leaked.
func TestCorruptionBeyondRepairNoLeak(t *testing.T) {
	arr := nvmesim.New(1, nvmesim.DeviceSpec{
		ReadBandwidth:  4e9,
		WriteBandwidth: 2e9,
		Latency:        20 * time.Microsecond,
	}, nvmesim.RealClock{})
	ctx := &exec.Ctx{
		Workers:     2,
		Budget:      pages.NewBudget(128 << 10), // tight enough that Q9 must spill
		PageSize:    16 << 10,
		Partitions:  16,
		PartitionAt: 0.4,
		Spill:       &core.SpillConfig{Array: arr, Lease: arr.NewLease(), Compress: true, Parity: 2},
		Stats:       &exec.Stats{},
	}
	node, err := BuildQuery(ctx, sharedDB(), 9)
	if err != nil {
		t.Fatal(err)
	}
	arr.SetFaultPlan(0, nvmesim.FaultPlan{Seed: 5, CorruptRate: 1.0})
	_, err = exec.Collect(ctx, node)
	if err == nil {
		t.Fatal("query succeeded with unhealable corruption on its only spill device")
	}
	var qe *core.QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v (%T), want *core.QueryError", err, err)
	}
	if qe.Op != "spill-read" || qe.Device != 0 || qe.Part < 0 {
		t.Fatalf("QueryError misses context: %+v", qe)
	}
	ctx.Close()
	if used := ctx.Budget.Used(); used != 0 {
		t.Errorf("budget leak: %d bytes still reserved after failed query", used)
	}
	if gets, puts := ctx.PoolCounters(); gets != puts {
		t.Errorf("batch pool imbalance: %d gets vs %d puts", gets, puts)
	}
	if ctx.Stats.Get(metrics.SpillChecksumErrors) == 0 {
		t.Error("no checksum errors recorded; corruption was not the failure cause")
	}
	if n := arr.LiveExtents(); n != 0 {
		t.Errorf("spill extent leak on error path: %d extents live after Close", n)
	}
}

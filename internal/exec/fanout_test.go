package exec

import (
	"fmt"
	"testing"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/pages"
)

// goldenTuning is the output of tuneForBudget(budget, workers) — the
// engine-side tuning fanOut replaced — for workers 1, 2, 4 and 8, as
// {partitions, page size}, generated by running that function at the commit
// before it was deleted. The rows after 64 MiB are grant sizes a 4 MiB budget
// with a 512 KiB floor hands out to four concurrent clients.
var goldenTuning = []struct {
	budget    int64
	byWorkers [4][2]int
}{
	{64 << 10, [4][2]int{{8, 4 << 10}, {8, 4 << 10}, {8, 4 << 10}, {8, 4 << 10}}},
	{128 << 10, [4][2]int{{8, 4 << 10}, {8, 4 << 10}, {8, 4 << 10}, {8, 4 << 10}}},
	{256 << 10, [4][2]int{{8, 4 << 10}, {8, 4 << 10}, {8, 4 << 10}, {8, 4 << 10}}},
	{512 << 10, [4][2]int{{8, 4 << 10}, {8, 4 << 10}, {8, 4 << 10}, {8, 4 << 10}}},
	{1024 << 10, [4][2]int{{8, 8 << 10}, {8, 4 << 10}, {8, 4 << 10}, {8, 4 << 10}}},
	{2048 << 10, [4][2]int{{8, 16 << 10}, {8, 8 << 10}, {8, 4 << 10}, {8, 4 << 10}}},
	{4096 << 10, [4][2]int{{8, 32 << 10}, {8, 16 << 10}, {8, 8 << 10}, {8, 4 << 10}}},
	{8192 << 10, [4][2]int{{8, 64 << 10}, {8, 32 << 10}, {8, 16 << 10}, {8, 8 << 10}}},
	{16384 << 10, [4][2]int{{16, 64 << 10}, {8, 64 << 10}, {8, 32 << 10}, {8, 16 << 10}}},
	{32768 << 10, [4][2]int{{32, 64 << 10}, {16, 64 << 10}, {8, 64 << 10}, {8, 32 << 10}}},
	{65536 << 10, [4][2]int{{64, 64 << 10}, {32, 64 << 10}, {16, 64 << 10}, {8, 64 << 10}}},
	{768 << 10, [4][2]int{{8, 4 << 10}, {8, 4 << 10}, {8, 4 << 10}, {8, 4 << 10}}},
	{1152 << 10, [4][2]int{{8, 8 << 10}, {8, 4 << 10}, {8, 4 << 10}, {8, 4 << 10}}},
	{1536 << 10, [4][2]int{{8, 8 << 10}, {8, 4 << 10}, {8, 4 << 10}, {8, 4 << 10}}},
	{1792 << 10, [4][2]int{{8, 8 << 10}, {8, 4 << 10}, {8, 4 << 10}, {8, 4 << 10}}},
	{2304 << 10, [4][2]int{{8, 16 << 10}, {8, 8 << 10}, {8, 4 << 10}, {8, 4 << 10}}},
	{3072 << 10, [4][2]int{{8, 16 << 10}, {8, 8 << 10}, {8, 4 << 10}, {8, 4 << 10}}},
	{3584 << 10, [4][2]int{{8, 16 << 10}, {8, 8 << 10}, {8, 4 << 10}, {8, 4 << 10}}},
}

// TestFanOutMatchesFormerTuning: with nothing pinned, fanOut returns exactly
// what the engine's tuneForBudget returned, for every budget × workers pair
// whose tuned active set fits half the budget. That is every pair from
// workers × 64 KiB up; below it the old tuning stopped at its floors with an
// active set as large as the budget or larger (six pairs of the table), and
// fanOut keeps shrinking until the invariant holds.
func TestFanOutMatchesFormerTuning(t *testing.T) {
	clamped := 0
	for _, g := range goldenTuning {
		for i, workers := range []int{1, 2, 4, 8} {
			want := g.byWorkers[i]
			parts, pageSize := fanOut(g.budget, workers, 0, 0)
			if int64(workers*want[0]*want[1]) <= g.budget/2 {
				if parts != want[0] || pageSize != want[1] {
					t.Errorf("budget %d KiB, %d workers: fanOut = (%d, %d), tuneForBudget gave (%d, %d)",
						g.budget>>10, workers, parts, pageSize, want[0], want[1])
				}
				continue
			}
			clamped++
			if g.budget >= int64(workers)*64<<10 {
				t.Errorf("budget %d KiB, %d workers: the former tuning is over half the budget at or above workers × 64 KiB", g.budget>>10, workers)
			}
			if parts > want[0] || pageSize > want[1] || int64(workers*parts*pageSize) > g.budget/2 {
				t.Errorf("budget %d KiB, %d workers: fanOut = (%d, %d) is not a shrunk (%d, %d) within half the budget",
					g.budget>>10, workers, parts, pageSize, want[0], want[1])
			}
		}
	}
	if clamped != 6 {
		t.Errorf("%d pairs shrunk past the former tuning, want 6", clamped)
	}
}

// fanOutPins are the pinned (Partitions, PageSize) pairs the invariant tests
// cover: nothing, spillCtx's literal, the defaults spelled out, and one side
// only.
var fanOutPins = [][2]int{{0, 0}, {16, 8 << 10}, {64, 64 << 10}, {0, 16 << 10}, {4, 0}}

// pinBounds returns the upper bounds a pin stands for.
func pinBounds(pin [2]int) (maxParts, maxPage int) {
	maxParts, maxPage = pin[0], pin[1]
	if maxParts == 0 {
		maxParts = core.MaxPartitions
	}
	if maxPage == 0 {
		maxPage = pages.DefaultPageSize
	}
	return maxParts, maxPage
}

// TestFanOutInvariant: whatever a context pins, the active set its operators
// get (workers × partitions × page size) is at most half its budget, the pins
// are upper bounds, and every reader of the derivation agrees.
func TestFanOutInvariant(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, budget := range []int64{48 << 10, 64 << 10, 96 << 10, 256 << 10, 1 << 20, 4 << 20} {
			for _, pin := range fanOutPins {
				ctx := &Ctx{Workers: workers, Budget: pages.NewBudget(budget), Partitions: pin[0], PageSize: pin[1]}
				cfg := ctx.coreConfig()
				name := fmt.Sprintf("%d workers, %d KiB, pinned (%d, %d)", workers, budget>>10, pin[0], pin[1])
				if active := int64(workers * cfg.Partitions * cfg.PageSize); active > budget/2 {
					t.Errorf("%s: active set %d × %d × %d = %d exceeds half the budget", name, workers, cfg.Partitions, cfg.PageSize, active)
				}
				maxParts, maxPage := pinBounds(pin)
				if cfg.Partitions > maxParts || cfg.PageSize > maxPage {
					t.Errorf("%s: derived (%d, %d) exceeds the pins", name, cfg.Partitions, cfg.PageSize)
				}
				if cfg.Partitions < 2 || cfg.Partitions&(cfg.Partitions-1) != 0 || cfg.PageSize < minPageSize {
					t.Errorf("%s: derived (%d, %d) is not a usable fan-out", name, cfg.Partitions, cfg.PageSize)
				}
				if ctx.pageSize() != cfg.PageSize {
					t.Errorf("%s: pageSize() = %d, coreConfig().PageSize = %d", name, ctx.pageSize(), cfg.PageSize)
				}
				// A resized budget is what the next operator derives from
				// (8 workers under 24 KiB is below the floor of 2 partitions
				// × minPageSize per worker).
				ctx.Budget.Resize(budget / 2)
				if p, ps := ctx.fanOut(); int64(workers*p*ps) > budget/4 && budget/4 >= int64(workers*2*minPageSize) {
					t.Errorf("%s: after halving the budget the active set is still %d", name, workers*p*ps)
				}
			}
		}
	}
	// Without a budget there is nothing to fit into: pins and defaults as is.
	for _, pin := range fanOutPins {
		cfg := (&Ctx{Workers: 8, Partitions: pin[0], PageSize: pin[1]}).coreConfig()
		if maxParts, maxPage := pinBounds(pin); cfg.Partitions != maxParts || cfg.PageSize != maxPage {
			t.Errorf("no budget, pinned %v: derived (%d, %d)", pin, cfg.Partitions, cfg.PageSize)
		}
	}
}

// TestOperatorsSpillUnderDerivedFanOut runs every materializing operator
// under budgets far below its input, at several worker counts, with the
// fan-out pinned as spillCtx pins it and left to the derivation: each must
// spill, read back, return the right answer, release everything, and stay
// within the budget plus the active sets the derivation allowed it (the join
// holds two: build side and probe side).
func TestOperatorsSpillUnderDerivedFanOut(t *testing.T) {
	budgetsKB := []int64{48, 256, 4096}
	if testing.Short() {
		budgetsKB = budgetsKB[:2]
	}
	for _, workers := range []int{1, 2, 8} {
		for _, budgetKB := range budgetsKB {
			for _, pinned := range []bool{true, false} {
				// Inputs two to three times the budget (tuples are 30–50
				// bytes), in whole groups of the fixtures' 100 customers and
				// 40-row window partitions.
				n := int(budgetKB<<10) / 16 / 200 * 200
				newCtx := func() *Ctx {
					ctx := spillCtx(workers, budgetKB)
					if !pinned {
						ctx.Partitions, ctx.PageSize = 0, 0
					}
					return ctx
				}
				ops := []struct {
					name string
					run  func(t *testing.T, ctx *Ctx)
				}{
					{"join", func(t *testing.T, ctx *Ctx) {
						if out := runJoin(t, ctx, Inner, false, 2*n, n); out.Len() != 2*n {
							t.Errorf("join returned %d rows, want %d", out.Len(), 2*n)
						}
					}},
					{"agg", func(t *testing.T, ctx *Ctx) { checkAggResult(t, runAgg(t, ctx, true, n), n) }},
					{"window", func(t *testing.T, ctx *Ctx) { checkWindow(t, runWindow(t, ctx, n/40, 40, allWindowFuncs()), n/40, 40) }},
					{"extsort", func(t *testing.T, ctx *Ctx) {
						out := runExtSort(t, ctx, n, 0)
						if out.Len() != n {
							t.Errorf("extsort returned %d rows, want %d", out.Len(), n)
						}
						checkSorted(t, out)
					}},
				}
				for _, op := range ops {
					t.Run(fmt.Sprintf("%s/w%d/%dKiB/pinned=%v", op.name, workers, budgetKB, pinned), func(t *testing.T) {
						ctx := newCtx()
						parts, pageSize := ctx.fanOut()
						op.run(t, ctx)
						spilled := ctx.Stats.Get(metrics.SpilledBytes)
						if spilled == 0 || ctx.Stats.Get(metrics.SpillReadBytes) == 0 {
							t.Errorf("spilled %d bytes, read back %d", spilled, ctx.Stats.Get(metrics.SpillReadBytes))
						}
						// Spilled bytes count each page's used bytes, and every
						// spilled page is verified once on readback: the pages
						// written — ExtSort's run pages too — are no larger than
						// the derived page, and mostly full ones of it.
						pgs := ctx.Stats.Get(metrics.SpillPagesVerified)
						if spilled > pgs*int64(pageSize) || 2*spilled < pgs*int64(pageSize) {
							t.Errorf("spilled %d bytes in %d pages, not mostly full pages of the derived %d bytes", spilled, pgs, pageSize)
						}
						limit := ctx.Budget.Limit()
						if slack := int64(2 * workers * parts * pageSize); ctx.Budget.Peak() > limit+slack {
							t.Errorf("peaked at %d bytes under a %d-byte budget with %d × %d × %d active pages (%.2f×)",
								ctx.Budget.Peak(), limit, workers, parts, pageSize, float64(ctx.Budget.Peak())/float64(limit))
						}
						ctx.Close()
						if used := ctx.Budget.Used(); used != 0 {
							t.Errorf("%d budget bytes still reserved after Close", used)
						}
					})
				}
			}
		}
	}
}

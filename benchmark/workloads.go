package main

import (
	"fmt"
	"math/rand"

	spilly "github.com/spilly-db/spilly"
	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/exec"
	"github.com/spilly-db/spilly/internal/tpch"
)

// workload is one fixed configuration of engine, data and clients. Names are
// cited by later issues; README.md records why each exists.
type workload struct {
	name    string
	sf      float64
	onArray bool          // tables on the table array (external scans)
	cfg     spilly.Config // beyond the common set-up in baseConfig
	clients int           // closed-loop clients; each runs every job once per round
	warmup  int           // discarded rounds before the measured window
	jobs    []job
}

// job is one query a client sends: a TPC-H query number, or a hand-built plan.
type job struct {
	name  string
	q     int                              // 1..22, or 0 for plan
	plan  func(e *spilly.Engine) exec.Node // q == 0
	exact bool                             // wide output: checked by hash, see outcome
}

// run executes the job the way a user would: one public call.
func (j job) run(e *spilly.Engine) (*spilly.Result, error) {
	if j.q > 0 {
		return e.RunTPCH(j.q)
	}
	return e.Run(j.plan(e))
}

// build is the plan-construction half of run, for the traced pass, which
// times it apart from execution.
func (j job) build(e *spilly.Engine, ctx *exec.Ctx) (exec.Node, error) {
	if j.q > 0 {
		return tpch.BuildQuery(ctx, e.TPCH(), j.q)
	}
	return j.plan(e), nil
}

// baseConfig is the set-up every workload shares: two workers, compression
// on, no parity, no result cache (or pass 2 would measure the cache), shared
// I/O scheduler on, default 8+8 simulated devices.
func baseConfig() spilly.Config {
	return spilly.Config{Workers: 2, Compression: true}
}

func tpchJobs() []job {
	jobs := make([]job, tpch.NumQueries)
	for i := range jobs {
		jobs[i] = job{name: fmt.Sprintf("q%02d", i+1), q: i + 1}
	}
	return jobs
}

func lineitem(e *spilly.Engine) colstore.Table {
	t, err := e.Table(tpch.Lineitem)
	if err != nil {
		panic(err) // set-up loaded it
	}
	return t
}

// microJobs are the four plans of micro_spill. Each materializes at least its
// whole input. The window orders by (l_shipdate, l_linenumber): l_shipdate
// alone has ties inside an order, and tied rows would take row numbers in
// arrival order, which differs from run to run.
func microJobs() []job {
	return []job{
		{name: "agg", exact: true, plan: func(e *spilly.Engine) exec.Node { return e.AggMicroPlan() }},
		{name: "join", exact: true, plan: func(e *spilly.Engine) exec.Node { return e.JoinMicroPlan() }},
		{name: "sort", exact: true, plan: func(e *spilly.Engine) exec.Node {
			return &spilly.ExtSortNode{
				Child: spilly.NewScan(lineitem(e), "l_orderkey", "l_extendedprice", "l_shipdate", "l_comment"),
				Keys:  []spilly.SortKey{{Col: "l_extendedprice", Desc: true}, {Col: "l_orderkey"}},
			}
		}},
		{name: "window", exact: true, plan: func(e *spilly.Engine) exec.Node {
			return spilly.NewWindow(
				spilly.NewScan(lineitem(e), "l_orderkey", "l_linenumber", "l_shipdate", "l_extendedprice"),
				[]string{"l_orderkey"},
				[]spilly.SortKey{{Col: "l_shipdate"}, {Col: "l_linenumber"}},
				[]spilly.WindowSpec{
					{Func: spilly.WRowNumber, As: "rn"},
					{Func: spilly.WSum, Col: "l_extendedprice", As: "running", Frame: spilly.FrameRunning},
				})
		}},
	}
}

const mixBudget = 4 << 20

// workloads returns the four workloads in ledger order.
func workloads() []workload {
	hot := workload{name: "hot", sf: 0.1, clients: 1, warmup: 2, jobs: tpchJobs(), cfg: baseConfig()}

	cold := workload{name: "cold_spill", sf: 0.1, onArray: true, clients: 1, warmup: 1, jobs: tpchJobs(), cfg: baseConfig()}
	cold.cfg.MemoryBudget = 2 << 20

	micro := workload{name: "micro_spill", sf: 0.05, onArray: true, clients: 1, warmup: 1, jobs: microJobs(), cfg: baseConfig()}
	micro.cfg.MemoryBudget = 1 << 20
	micro.cfg.Device = spilly.DefaultDevice.Scaled(0.25)
	micro.cfg.SpillDevices = 2

	// Four clients, not nproc: the governor hands an idle engine the whole
	// budget, so two closed-loop clients run strictly one after the other.
	mix := workload{name: "mix", sf: 0.1, onArray: true, clients: 4, warmup: 1, jobs: tpchJobs(), cfg: baseConfig()}
	mix.cfg.MemoryBudget = mixBudget
	mix.cfg.CacheBytes = 16 << 20

	return []workload{hot, cold, micro, mix}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// orders draws, for one round, each client's own order over the jobs. The
// seed drives nothing else: the TPC-H generator is deterministic in SF.
type orders struct {
	rngs []*rand.Rand
	n    int
}

func newOrders(seed int64, clients, jobs int) *orders {
	o := &orders{n: jobs}
	for c := 0; c < clients; c++ {
		o.rngs = append(o.rngs, rand.New(rand.NewSource(seed*1000003+int64(c))))
	}
	return o
}

func (o *orders) next() [][]int {
	out := make([][]int, len(o.rngs))
	for c, rng := range o.rngs {
		out[c] = rng.Perm(o.n)
	}
	return out
}

package bench

import (
	"fmt"
	"io"
	"time"

	spilly "github.com/spilly-db/spilly"
	"github.com/spilly-db/spilly/internal/tpch"
)

func init() {
	register(Experiment{
		ID:    "fig5",
		Paper: "Figure 5: in-memory TPC-H performance, hot runs",
		Run:   runHotRuns,
	})
	register(Experiment{
		ID:    "fig6",
		Paper: "Figure 6 + §6.2 tables: cold-run scaling across scale factors",
		Run:   runColdScaling,
	})
	register(Experiment{
		ID:    "fig7",
		Paper: "Figure 7: spilling aggregation microbenchmark across scale factors",
		Run:   func(w io.Writer, o Options) error { return runMicroSweep(w, o, "agg") },
	})
	register(Experiment{
		ID:    "fig10",
		Paper: "Figure 10: spilling join microbenchmark across scale factors",
		Run:   func(w io.Writer, o Options) error { return runMicroSweep(w, o, "join") },
	})
	register(Experiment{
		ID:    "sec65-hybrid",
		Paper: "§6.5 table: hybrid spilling vs spill-all",
		Run:   runHybridVsSpillAll,
	})
	register(Experiment{
		ID:    "fig8",
		Paper: "Figure 8: CPU / memory / I/O traces of the aggregation microbenchmark",
		Run:   runTraces,
	})
}

func runHotRuns(w io.Writer, o Options) error {
	sf := 0.02
	if o.Quick {
		sf = 0.01
	}
	fmt.Fprintf(w, "TPC-H hot runs at SF %g: tables on the NVMe array with a buffer cache\n", sf)
	fmt.Fprintln(w, "large enough to hold them; each query runs twice and the second run is")
	fmt.Fprintln(w, "measured (§6.1). No memory pressure.")
	fmt.Fprintln(w)
	t := newTable("System", "Role", "tup/s (geomean)", "total time")
	for _, sys := range systems() {
		cfg := sys.Make(0, o.workers(), 8)
		cfg.CacheBytes = 1 << 30
		eng, err := newEngine(cfg, sf, true)
		if err != nil {
			return err
		}
		var rates []float64
		var total time.Duration
		for q := 1; q <= tpch.NumQueries; q++ {
			if _, err := eng.RunTPCH(q); err != nil { // cold pass warms the cache
				return fmt.Errorf("%s Q%d: %w", sys.Name, q, err)
			}
			res, err := eng.RunTPCH(q) // hot pass
			if err != nil {
				return fmt.Errorf("%s Q%d: %w", sys.Name, q, err)
			}
			rates = append(rates, res.Stats.TuplesPerSec)
			total += res.Stats.Duration
		}
		t.row(sys.Name, sys.Role, geoMean(rates), total)
	}
	t.write(w)
	fmt.Fprintln(w, "\nShape check (paper Figure 5): Spilly matches the pure in-memory engine")
	fmt.Fprintln(w, "(Hyper) — the whole point of adaptive materialization — while the")
	fmt.Fprintln(w, "always-partitioning systems trail.")
	return nil
}

func runColdScaling(w io.Writer, o Options) error {
	sfs := o.sweep([]float64{0.02, 0.05, 0.1, 0.2})
	budget := o.budget(12 << 20)
	fmt.Fprintf(w, "TPC-H cold runs: tables on the NVMe array, no cache, %s memory budget\n", fmtBytes(budget))
	fmt.Fprintln(w, "(the paper holds 384 GB against up to 10 TB; the budget:data ratio axis")
	fmt.Fprintln(w, "is reproduced by growing SF against a fixed budget).")
	fmt.Fprintln(w)

	type cell struct {
		tps    float64
		failed bool
	}
	results := map[string][]cell{}
	spilled := make([]int64, len(sfs))
	scanned := make([]int64, len(sfs))
	var spillyTimes [][]time.Duration

	for si, sf := range sfs {
		for _, sys := range systems() {
			eng, err := newEngine(sys.Make(budget, o.workers(), 8), sf, true)
			if err != nil {
				return err
			}
			tuples, total, perQ, err := runAllQueriesWithStats(eng, func(s spilly.Stats) {
				if sys.Name == "Spilly" {
					spilled[si] += s.SpilledBytes
					scanned[si] += s.ScannedBytes
				}
			})
			if err != nil {
				results[sys.Name] = append(results[sys.Name], cell{failed: true})
				continue
			}
			results[sys.Name] = append(results[sys.Name], cell{tps: float64(tuples) / total.Seconds()})
			if sys.Name == "Spilly" {
				spillyTimes = append(spillyTimes, perQ)
			}
		}
	}

	t := newTable(append([]string{"System"}, sfHeaders(sfs)...)...)
	for _, sys := range systems() {
		cells := []interface{}{sys.Name}
		for _, c := range results[sys.Name] {
			if c.failed {
				cells = append(cells, "FAIL (OOM)")
			} else {
				cells = append(cells, c.tps)
			}
		}
		t.row(cells...)
	}
	t.write(w)

	fmt.Fprintln(w, "\nSpilly spilled vs scanned data (paper §6.2 table):")
	st := newTable("SF", "Spilled", "Scanned", "Spilled fraction")
	for si, sf := range sfs {
		frac := 0.0
		if scanned[si] > 0 {
			frac = float64(spilled[si]) / float64(scanned[si])
		}
		st.row(fmt.Sprintf("%g", sf), fmtBytes(spilled[si]), fmtBytes(scanned[si]), fmt.Sprintf("%.0f%%", 100*frac))
	}
	st.write(w)

	if len(spillyTimes) > 0 {
		fmt.Fprintln(w, "\nSpilly absolute query times (§6.2, smallest and largest SF):")
		qt := newTable("Query", fmt.Sprintf("SF %g", sfs[0]), fmt.Sprintf("SF %g", sfs[len(sfs)-1]))
		last := spillyTimes[len(spillyTimes)-1]
		for q := 1; q <= tpch.NumQueries; q++ {
			qt.row(fmt.Sprintf("Q%d", q), spillyTimes[0][q], last[q])
		}
		qt.write(w)
	}
	fmt.Fprintln(w, "\nShape check (paper Figure 6): Spilly's throughput declines only mildly")
	fmt.Fprintln(w, "as data grows past memory (paper: 11% over 50x data growth); the pure")
	fmt.Fprintln(w, "in-memory engine fails outright once the budget is exceeded; the HDD-era")
	fmt.Fprintln(w, "engine survives but is several times slower throughout.")
	return nil
}

// runAllQueriesWithStats is runAllQueries plus a per-query stats callback.
func runAllQueriesWithStats(eng *spilly.Engine, cb func(spilly.Stats)) (int64, time.Duration, []time.Duration, error) {
	perQuery := make([]time.Duration, tpch.NumQueries+1)
	var tuples int64
	var total time.Duration
	for q := 1; q <= tpch.NumQueries; q++ {
		eng.ClearCaches()
		res, err := eng.RunTPCH(q)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("Q%d: %w", q, err)
		}
		tuples += res.Stats.ScannedRows
		total += res.Stats.Duration
		perQuery[q] = res.Stats.Duration
		if cb != nil {
			cb(res.Stats)
		}
	}
	return tuples, total, perQuery, nil
}

func runMicroSweep(w io.Writer, o Options, micro string) error {
	sfs := o.sweep([]float64{0.02, 0.05, 0.1, 0.2})
	budget := o.budget(4 << 20)
	label := "aggregation (§6.3)"
	if micro == "join" {
		label = "join (§6.7)"
	}
	fmt.Fprintf(w, "Spilling %s microbenchmark across scale factors, %s budget,\n", label, fmtBytes(budget))
	fmt.Fprintln(w, "tables on the NVMe array.")
	fmt.Fprintln(w)
	t := newTable(append([]string{"System"}, sfHeaders(sfs)...)...)
	spillRow := newTable(append([]string{"Metric"}, sfHeaders(sfs)...)...)
	var spilledCells []interface{}
	spilledCells = append(spilledCells, "Spilly spilled")
	var firstTps, lastTps float64
	for _, sys := range systems() {
		cells := []interface{}{sys.Name}
		for si, sf := range sfs {
			eng, err := newEngine(sys.Make(budget, o.workers(), 8), sf, true)
			if err != nil {
				return err
			}
			res, err := eng.Run(microPlan(eng, micro))
			if err != nil {
				cells = append(cells, "FAIL (OOM)")
				if sys.Name == "Spilly" {
					spilledCells = append(spilledCells, "-")
				}
				continue
			}
			cells = append(cells, res.Stats.TuplesPerSec)
			if sys.Name == "Spilly" {
				spilledCells = append(spilledCells, fmtBytes(res.Stats.SpilledBytes))
				if si == 0 {
					firstTps = res.Stats.TuplesPerSec
				}
				if si == len(sfs)-1 {
					lastTps = res.Stats.TuplesPerSec
				}
			}
		}
		t.row(cells...)
	}
	t.write(w)
	fmt.Fprintln(w)
	spillRow.row(spilledCells...)
	spillRow.write(w)
	if lastTps > 0 {
		fmt.Fprintf(w, "\nShape check: Spilly's throughput drop across the sweep is %.2fx\n", firstTps/lastTps)
		fmt.Fprintln(w, "(paper: 1.19x for the aggregation over SF 100->10k, 1.63x for the join).")
		fmt.Fprintln(w, "The in-memory engine fails at larger SFs; the HDD-era engine is slow but flat.")
	}
	return nil
}

func runHybridVsSpillAll(w io.Writer, o Options) error {
	sfs := o.sweep([]float64{0.02, 0.05, 0.1, 0.2})
	budget := o.budget(12 << 20)
	fmt.Fprintf(w, "Umami's hybrid spilling vs spilling everything on overflow (§6.5),\n")
	fmt.Fprintf(w, "TPC-H cold runs, %s budget.\n\n", fmtBytes(budget))
	t := newTable("SF", "Spilled all", "Spilled hybrid", "Time all", "Time hybrid")
	for _, sf := range sfs {
		var spilledB [2]int64
		var times [2]time.Duration
		for i, baseline := range []spilly.Baseline{spilly.SpillAll, spilly.Adaptive} {
			eng, err := newEngine(spilly.Config{
				Workers: o.workers(), MemoryBudget: budget, Baseline: baseline, Compression: true,
			}, sf, true)
			if err != nil {
				return err
			}
			_, total, _, err := runAllQueriesWithStats(eng, func(s spilly.Stats) {
				spilledB[i] += s.SpilledBytes
			})
			if err != nil {
				return fmt.Errorf("baseline %d SF %g: %w", baseline, sf, err)
			}
			times[i] = total
		}
		t.row(fmt.Sprintf("%g", sf), fmtBytes(spilledB[0]), fmtBytes(spilledB[1]), times[0], times[1])
	}
	t.write(w)
	fmt.Fprintln(w, "\nShape check (paper §6.5): hybrid spilling writes the least just past the")
	fmt.Fprintln(w, "memory cliff (paper: 36% less at SF 200) and the advantage shrinks at")
	fmt.Fprintln(w, "larger scale factors, where almost everything must spill either way.")
	return nil
}

func runTraces(w io.Writer, o Options) error {
	sf := 0.1
	if o.Quick {
		sf = 0.05
	}
	budget := o.budget(4 << 20)
	for _, tc := range []struct {
		name   string
		sf     float64
		budget int64
	}{
		{"in-memory (paper Fig. 8 top)", sf, 0},
		{"out-of-memory (paper Fig. 8 bottom)", sf, budget},
	} {
		eng, err := newEngine(spilly.Config{
			Workers: o.workers(), MemoryBudget: tc.budget, Compression: false,
		}, tc.sf, true)
		if err != nil {
			return err
		}
		res, samples, err := eng.TraceQuery(eng.AggMicroPlan(), 10*time.Millisecond)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Aggregation microbenchmark, %s: SF %g, %s spilled, %.0f tup/s\n",
			tc.name, tc.sf, fmtBytes(res.Stats.SpilledBytes), res.Stats.TuplesPerSec)
		t := newTable("t (ms)", "Mtup/s", "table read MB/s", "spill write MB/s", "spill read MB/s")
		step := 1
		if len(samples) > 24 {
			step = len(samples) / 24
		}
		for i := 0; i < len(samples); i += step {
			s := samples[i]
			t.row(s.T.Milliseconds(),
				s.Rates["tuples"]/1e6,
				s.Rates["table_read"]/1e6,
				s.Rates["spill_write"]/1e6,
				s.Rates["spill_read"]/1e6)
		}
		t.write(w)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "Shape check (paper Figure 8): the in-memory run shows CPU-bound scan +")
	fmt.Fprintln(w, "merge phases with no spill I/O; the out-of-memory run adds a write phase")
	fmt.Fprintln(w, "near the array's write bandwidth and a read-back phase, with tuple")
	fmt.Fprintln(w, "throughput staying CPU-limited rather than collapsing to I/O speed.")
	return nil
}

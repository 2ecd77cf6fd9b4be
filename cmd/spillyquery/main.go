// Command spillyquery runs a TPC-H query against the engine with
// configurable memory budget, storage placement, and baseline engine,
// printing the result and execution statistics. It is the interactive way
// to watch Umami switch between in-memory and out-of-memory processing.
//
// Examples:
//
//	spillyquery -q 1 -sf 0.01
//	spillyquery -q 9 -sf 0.05 -budget 2097152 -array
//	spillyquery -q 9 -sf 0.05 -budget 2097152 -baseline inmemory    # fails like an in-memory engine
//	spillyquery -q 9 -sf 0.05 -budget 2097152 -profile               # per-operator profile tree
//	spillyquery -q 9 -sf 0.5 -serve :8080                            # live /metrics, /queries, pprof
//	spillyquery -q 9 -sf 0.05 -budget 2097152 -concurrent 8          # 8 admitted copies sharing the budget
//	spillyquery -q 1 -sf 0.05 -cachebytes 8388608                    # 8 MB table buffer cache
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	spilly "github.com/spilly-db/spilly"
)

func main() {
	var (
		q        = flag.Int("q", 1, "TPC-H query number (1-22)")
		sf       = flag.Float64("sf", 0.01, "scale factor")
		budget   = flag.Int64("budget", 0, "memory budget in bytes (0 = unlimited)")
		onArray  = flag.Bool("array", false, "store tables on the simulated NVMe array")
		workers  = flag.Int("workers", 2, "worker goroutines")
		compress = flag.Bool("compress", true, "self-regulating compression for spilled data")
		baseline = flag.String("baseline", "adaptive", "engine variant: adaptive|never|inmemory (never partition, fail on OOM)|always|grace|spillall")
		rows     = flag.Int("rows", 20, "result rows to print")
		tblDir   = flag.String("tbl", "", "load dbgen-format .tbl files from this directory instead of generating")
		profile  = flag.Bool("profile", false, "print a per-operator execution profile (EXPLAIN ANALYZE)")
		serve    = flag.String("serve", "", "serve /metrics, /queries and pprof on this address while running")
		parity   = flag.Int("parity", 0, "spill parity stripe width K: checksummed pages + one XOR parity block per K spill blocks (0 = off)")
		conc     = flag.Int("concurrent", 1, "run this many copies of the query concurrently through the admission governor")
		cacheB   = flag.Int64("cachebytes", 0, "table buffer cache size in bytes (0 = no buffer cache)")
		repeat   = flag.Int("repeat", 1, "run the query this many times in sequence")
	)
	flag.Parse()

	baselines := map[string]spilly.Baseline{
		"adaptive": spilly.Adaptive,
		"never":    spilly.NeverPartition,
		"inmemory": spilly.InMemoryOnly,
		"always":   spilly.AlwaysPartition,
		"grace":    spilly.Grace,
		"spillall": spilly.SpillAll,
	}
	bl, ok := baselines[*baseline]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown baseline %q\n", *baseline)
		os.Exit(1)
	}

	eng, err := spilly.Open(spilly.Config{
		Workers:      *workers,
		MemoryBudget: *budget,
		Baseline:     bl,
		Compression:  *compress,
		Profile:      *profile,
		SpillParity:  *parity,
		CacheBytes:   *cacheB,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *serve != "" {
		addr, shutdown, err := eng.Serve(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (queries: /queries, pprof: /debug/pprof/)\n", addr)
	}
	if *tblDir != "" {
		err = eng.LoadTPCHTbl(*tblDir, *sf, *onArray)
	} else {
		err = eng.LoadTPCH(*sf, *onArray)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *conc > 1 {
		runConcurrent(eng, *q, *conc)
		return
	}

	var res *spilly.Result
	for i := 0; i < *repeat; i++ {
		res, err = eng.RunTPCH(*q)
		if err != nil {
			fmt.Fprintf(os.Stderr, "Q%d failed: %v\n", *q, err)
			os.Exit(1)
		}
		if *repeat > 1 {
			fmt.Printf("run %d: %v\n", i+1, res.Stats.Duration)
		}
	}
	fmt.Print(spilly.FormatBatch(res.Batch, *rows))
	s := res.Stats
	fmt.Printf("\nQ%d: %v, %d rows out\n", *q, s.Duration, res.Batch.Len())
	fmt.Printf("scanned: %d tuples (%.1f MB), %.0f tuples/s, %.1f cycles/byte\n",
		s.ScannedRows, float64(s.ScannedBytes)/(1<<20), s.TuplesPerSec, s.CyclesPerByte)
	if s.ScanStallTime > 0 {
		fmt.Printf("scan stall: %v blocked on table reads\n", s.ScanStallTime)
	}
	if s.SpilledBytes > 0 {
		fmt.Printf("spilled: %.1f MB raw, %.1f MB written (compressed), %.1f MB read back\n",
			float64(s.SpilledBytes)/(1<<20), float64(s.WrittenBytes)/(1<<20), float64(s.SpillReadBytes)/(1<<20))
		if len(s.Schemes) > 0 {
			fmt.Printf("compression schemes: %v\n", s.Schemes)
		}
		fmt.Printf("readback: %v stalled, %d partitions prefetched\n",
			s.SpillStallTime, s.PrefetchedPartitions)
		if s.SpillPagesVerified > 0 || s.SpillParityBytes > 0 {
			fmt.Printf("integrity: %d pages verified, %d checksum errors, %d blocks reconstructed, %.1f MB parity overhead\n",
				s.SpillPagesVerified, s.SpillChecksumErrors, s.SpillReconstructions,
				float64(s.SpillParityBytes)/(1<<20))
		}
	} else {
		fmt.Println("spilled: nothing (stayed in memory)")
	}
	if *cacheB > 0 {
		bc := eng.BufferCacheStats()
		fmt.Printf("buffer cache: %d hits, %d misses, %.1f MB in %d blocks",
			bc.Hits, bc.Misses, float64(bc.Used)/(1<<20), bc.Blocks)
		if bc.Oversized > 0 {
			// Blocks larger than cachebytes/16 cannot live in any shard.
			fmt.Printf(" (%d blocks too large to cache)", bc.Oversized)
		}
		fmt.Println()
	}
	printIOSched(eng)
	if *profile {
		fmt.Printf("\n%s", spilly.FormatProfile(res.Profile()))
	}
}

// printIOSched summarizes the shared I/O schedulers: how much work each
// class pushed through, how often lower classes yielded, and the aging
// traffic. An array that saw no I/O prints nothing.
func printIOSched(eng *spilly.Engine) {
	for _, sn := range eng.IOSchedSnapshots() {
		var total, deferred int64
		for _, c := range sn.Stats.Classes {
			total += c.Dispatched
			deferred += c.Deferred
		}
		if total == 0 {
			continue
		}
		fmt.Printf("iosched[%s]: %d dispatched (%d demand, %d spill-write, %d prefetch, %d background), %d deferred, %d aged\n",
			sn.Name, total,
			sn.Stats.Classes[0].Dispatched, sn.Stats.Classes[1].Dispatched,
			sn.Stats.Classes[2].Dispatched, sn.Stats.Classes[3].Dispatched,
			deferred, sn.Stats.Aged)
	}
}

// runConcurrent fires n copies of the query at once; the governor admits
// them against the shared budget and each copy runs under its own spill
// lease. Per-copy admission wait and grant sizes show the sharing policy.
func runConcurrent(eng *spilly.Engine, q, n int) {
	type run struct {
		res *spilly.Result
		err error
		dur time.Duration
	}
	runs := make([]run, n)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			res, err := eng.RunTPCH(q)
			runs[i] = run{res: res, err: err, dur: time.Since(t0)}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	failed := 0
	for i, r := range runs {
		if r.err != nil {
			failed++
			fmt.Printf("run %2d: FAILED after %v: %v\n", i, r.dur, r.err)
			continue
		}
		s := r.res.Stats
		fmt.Printf("run %2d: %v (admission wait %v, grant %.1f MB, spilled %.1f MB)\n",
			i, s.Duration, s.AdmissionWait, float64(s.MemoryGrant)/(1<<20),
			float64(s.SpilledBytes)/(1<<20))
	}
	g := eng.GovernorStats()
	fmt.Printf("\n%d×Q%d in %v wall (%d failed)\n", n, q, wall, failed)
	fmt.Printf("admission: %d admitted, %d timeouts, %v total queue wait\n",
		g.Admitted, g.Timeouts, g.WaitTotal)
	fmt.Printf("spill array: %d live extents, %d live leases (both should be 0 when idle)\n",
		eng.SpillArray().LiveExtents(), eng.SpillArray().Leases())
	printIOSched(eng)
	if failed > 0 {
		os.Exit(1)
	}
}

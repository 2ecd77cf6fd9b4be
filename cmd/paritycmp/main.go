// Command paritycmp guards the spill parity tax: it re-measures the bench
// package's parity-off-vs-on matrix (Q9/Q12/Q13, the spill-heavy workloads;
// both modes checksum every page) and fails when parity costs more than the
// threshold in wall time (geo-mean over the queries), or when the two modes
// disagree on a result fingerprint. It needs no committed baseline: the parity-off run
// measured in the same process is the baseline, so the comparison is
// self-relative and immune to machine speed.
//
// Usage:
//
//	paritycmp                 # measure, exit 1 if parity costs >10% wall time
//	paritycmp -quick          # smaller scale factor
//	paritycmp -threshold 1.2  # custom wall-time ceiling
//	paritycmp -print          # print fresh measurements as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"github.com/spilly-db/spilly/internal/bench"
)

// geoMean returns the geometric mean of positive values.
func geoMean(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

func main() {
	var (
		quick     = flag.Bool("quick", false, "measure at the smaller scale factor")
		threshold = flag.Float64("threshold", 1.10, "fail when parity wall time exceeds parity-off by this factor")
		printJSON = flag.Bool("print", false, "print fresh measurements as JSON and exit")
	)
	flag.Parse()

	ms, err := bench.MeasureParity(bench.Options{Quick: *quick, Workers: 2})
	if err != nil {
		fmt.Fprintf(os.Stderr, "paritycmp: measurement failed: %v\n", err)
		os.Exit(1)
	}

	if *printJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(ms)
		return
	}

	byKey := map[string]bench.ParityMeasurement{}
	for _, m := range ms {
		byKey[m.Key()] = m
	}
	failed := false
	exercised := false
	var ratios []float64
	for _, m := range ms {
		if m.Mode != "parity" {
			continue
		}
		off, ok := byKey[m.Query+"/off"]
		if !ok || off.NsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "paritycmp: no parity-off measurement for %s\n", m.Query)
			os.Exit(1)
		}
		// Integrity must never change the answer: a fingerprint mismatch is
		// a correctness bug, not a tax, and fails regardless of threshold.
		if m.Checksum != off.Checksum {
			fmt.Fprintf(os.Stderr, "paritycmp: %s result fingerprint changed under parity (%s vs %s)\n",
				m.Query, off.Checksum, m.Checksum)
			failed = true
			continue
		}
		// A query that spilled must have verified every page it read back;
		// one that stayed in memory at this scale legitimately verifies
		// nothing (the -quick scale factor keeps Q12/Q13 under budget).
		if m.WrittenBytes > 0 && m.PagesVerified == 0 {
			fmt.Fprintf(os.Stderr, "paritycmp: %s spilled but verified zero pages — integrity path not exercised\n",
				m.Query)
			failed = true
			continue
		}
		if m.PagesVerified > 0 {
			exercised = true
		}
		ratio := m.NsPerOp / off.NsPerOp
		ratios = append(ratios, ratio)
		fmt.Printf("%-6s off=%-10.1fms parity=%-10.1fms ratio=%.3f verified=%-8d parity-bytes=%d\n",
			m.Query, off.NsPerOp/1e6, m.NsPerOp/1e6, ratio, m.PagesVerified, m.ParityBytes)
	}
	// The wall-time ceiling gates the geo-mean across queries, not each
	// query alone: per-query best-of-N wall clock on a shared box still
	// jitters more than the parity tax itself, and averaging across the
	// three workloads cancels most of it while a real across-the-board
	// regression still trips.
	if len(ratios) > 0 {
		gm := geoMean(ratios)
		status := "ok"
		if gm > *threshold {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("geo-mean wall ratio %.3f (ceiling %.2f)  %s\n", gm, *threshold, status)
	}
	if !exercised {
		fmt.Fprintln(os.Stderr, "paritycmp: no query verified any pages — the gate measured nothing")
		failed = true
	}
	if failed {
		fmt.Fprintf(os.Stderr, "paritycmp: spill parity costs more than %.0f%% wall time or changed a result\n",
			(*threshold-1)*100)
		os.Exit(1)
	}
}

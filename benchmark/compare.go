package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// spec is BENCHMARK.json: the one place metric names, directions and bounds
// are written down.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readSpec finds BENCHMARK.json at the root of the checkout, whether the
// benchmark runs from there or from its own directory.
func readSpec() (*spec, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}

// side is one ledger's untraced runs of one workload.
type side struct {
	runs   []*record
	failed int
}

func (s side) of(name string) (q1, med, q3 float64, n int) {
	var values []float64
	for _, r := range s.runs {
		if v, ok := r.Metrics[name]; ok {
			values = append(values, v.Value)
		}
	}
	if len(values) == 1 {
		// One run has no spread between runs; the quartiles of the samples
		// inside it are the next best thing.
		v := s.runs[0].Metrics[name]
		return v.Q1, v.Value, v.Q3, 1
	}
	q1, med, q3 = quartiles(values)
	return q1, med, q3, len(values)
}

func untraced(l *ledger, workload string) side {
	var s side
	for _, r := range l.Runs {
		if r.Workload == workload && !r.Trace {
			s.runs = append(s.runs, r)
			s.failed += r.Failed
		}
	}
	return s
}

// compareLedgers prints, per workload and end-to-end metric, both medians,
// both quartile spreads and a verdict: regressed when b's median is worse
// than a's by more than the metric's bound, unresolved when it is not but
// either spread is wider than the bound, ok otherwise. It reports whether
// anything regressed or more executions failed.
func compareLedgers(w io.Writer, paths []string) (regressed bool, err error) {
	if len(paths) != 2 {
		return false, errors.New("--compare takes two ledger files")
	}
	sp, err := readSpec()
	if err != nil {
		return false, err
	}
	a, err := readLedger(paths[0])
	if err != nil {
		return false, err
	}
	b, err := readLedger(paths[1])
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-12s %-18s %-8s %13s %13s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "a median", "b median", "a iqr", "b iqr", "worse", "bound", "verdict")
	for _, wl := range sp.Workloads {
		sa, sb := untraced(a, wl.Name), untraced(b, wl.Name)
		if len(sa.runs) == 0 || len(sb.runs) == 0 {
			fmt.Fprintf(w, "%-12s not in both ledgers\n", wl.Name)
			continue
		}
		for _, ms := range sp.EndToEnd {
			aq1, am, aq3, an := sa.of(ms.Name)
			bq1, bm, bq3, bn := sb.of(ms.Name)
			if an == 0 || bn == 0 {
				fmt.Fprintf(w, "%-12s %-18s not in both ledgers\n", wl.Name, ms.Name)
				continue
			}
			worse := ratio(bm-am, am)
			if ms.Better == "higher" {
				worse = -worse
			}
			sprA, sprB := spread(aq1, am, aq3), spread(bq1, bm, bq3)
			verdict := "ok"
			switch {
			case worse > ms.Bound:
				verdict = "regressed"
				regressed = true
			case sprA > ms.Bound || sprB > ms.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-12s %-18s %-8s %13.6g %13.6g %7.1f%% %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.Name, ms.Name, ms.Unit, am, bm, 100*sprA, 100*sprB, 100*worse, 100*ms.Bound, verdict)
		}
		if sb.failed > sa.failed {
			fmt.Fprintf(w, "%-12s failed executions rose from %d to %d\n", wl.Name, sa.failed, sb.failed)
			regressed = true
		}
	}
	return regressed, nil
}

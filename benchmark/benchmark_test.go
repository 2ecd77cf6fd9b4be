package main

import (
	"regexp"
	"sort"
	"testing"
	"time"
)

// smoke runs one workload on a tenth of its data: one measured round, kernels
// at a millisecond a repetition.
func smoke(t *testing.T, workload string, trace bool) *record {
	t.Helper()
	rec, _, err := runWorkload(options{
		workload: workload, seed: 1, seconds: 1, trace: trace,
		sfScale: 0.1, maxRounds: 1, kernelRep: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rec.Correct {
		t.Fatalf("%s: %d of %d executions failed: %v", workload, rec.Failed, rec.Attempted, rec.Problems)
	}
	return rec
}

func names(m metrics) []string {
	var out []string
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func specNames(t *testing.T, specs []metricSpec, limit int) []string {
	t.Helper()
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var out []string
	for _, s := range specs {
		if !valid.MatchString(s.Name) {
			t.Errorf("metric name %q is not of the form the driver accepts", s.Name)
		}
		out = append(out, s.Name)
	}
	if len(out) > limit {
		t.Errorf("%d metrics, at most %d allowed", len(out), limit)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	seen := map[string]bool{}
	for _, n := range got {
		seen[n] = true
	}
	for _, n := range want {
		if !seen[n] {
			t.Errorf("%s: %s is in BENCHMARK.json but was not emitted", what, n)
		}
		delete(seen, n)
	}
	for n := range seen {
		t.Errorf("%s: %s was emitted but is not in BENCHMARK.json", what, n)
	}
}

// TestLedgerMatchesSpec checks that every run emits exactly the metrics
// BENCHMARK.json lists, and that each workload bypasses what it is meant to
// bypass: an optimisation of a bypassed layer must show no movement there.
func TestLedgerMatchesSpec(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	endToEnd := specNames(t, sp.EndToEnd, 16)
	perLayer := specNames(t, sp.PerLayer, 128)

	if len(sp.Workloads) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads()))
	}
	for _, w := range sp.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark does not have", w.Name)
		}
	}

	sameNames(t, "hot untraced", names(smoke(t, "hot", false).Metrics), endToEnd)

	layers := map[string]metrics{}
	for _, w := range workloads() {
		layers[w.name] = smoke(t, w.name, true).Metrics
		sameNames(t, w.name+" traced", names(layers[w.name]), perLayer)
	}
	value := func(workload, name string) float64 { return layers[workload][name].Value }

	for _, name := range []string{
		"core.spilled_mb_per_pass", "core.spill_read_mb_per_pass", "colstore.table_read_mb_per_pass",
		"nvmesim.spill_write_util", "nvmesim.spill_read_util", "nvmesim.table_read_util",
	} {
		if v := value("hot", name); v != 0 {
			t.Errorf("hot: %s = %g, want 0: hot must touch neither array", name, v)
		}
	}
	for _, w := range []string{"cold_spill", "micro_spill"} {
		if v := value(w, "core.spilled_mb_per_pass"); v <= 0 {
			t.Errorf("%s: core.spilled_mb_per_pass = %g, want > 0", w, v)
		}
	}
	if v := value("mix", "pages.grant_mb_mean"); v <= 0 || v >= mixBudget/mb {
		t.Errorf("mix: pages.grant_mb_mean = %g MB, want a share of the %d MB budget", v, mixBudget/mb)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %g %g %g, want 3.5 24 160", q1, q2, q3)
	}
}

package spilly

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/metrics"
)

// TestProfileTimesSumToDuration: with profiling on, the per-operator self
// times must account for the query's wall time — the tree renderer would be
// useless if time vanished between operators. Budget: within 10% of
// Stats.Duration (plan build and result collection sit outside the spans).
func TestProfileTimesSumToDuration(t *testing.T) {
	eng, err := Open(Config{Workers: 2, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTPCH(0.01, false); err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunTPCH(1)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile()
	if p == nil {
		t.Fatal("Profile() = nil with Config.Profile set")
	}
	if len(p.Roots) == 0 {
		t.Fatal("profile has no spans")
	}
	sum := p.SelfSum()
	total := res.Stats.Duration
	if sum > total {
		t.Fatalf("profile self-time sum %v exceeds query duration %v", sum, total)
	}
	if miss := total - sum; miss > total/10 {
		t.Fatalf("profile accounts for %v of %v (missing %v > 10%%)", sum, total, miss)
	}
	text := FormatProfile(p)
	for _, want := range []string{"query:", "scan", "agg", "sort"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered profile missing %q:\n%s", want, text)
		}
	}
}

// TestProfileOffByDefault: without Config.Profile the result carries no
// profile and rendering nil stays harmless.
func TestProfileOffByDefault(t *testing.T) {
	eng, err := Open(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTPCH(0.005, false); err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunTPCH(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile() != nil {
		t.Fatal("Profile() non-nil without Config.Profile")
	}
	if got := FormatProfile(nil); got != "(no profile)\n" {
		t.Fatalf("FormatProfile(nil) = %q", got)
	}
}

// TestServeDuringQuery: the observability endpoint must serve Prometheus
// counters, the pprof index, and the in-flight query snapshot while a query
// is actually executing.
func TestServeDuringQuery(t *testing.T) {
	eng, err := Open(Config{Workers: 2, MemoryBudget: 256 << 10, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTPCH(0.01, false); err != nil {
		t.Fatal(err)
	}
	addr, shutdown, err := eng.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	base := "http://" + addr

	// Warm-up query so cumulative counters are non-zero.
	if _, err := eng.RunTPCH(1); err != nil {
		t.Fatal(err)
	}

	// Run a spilling query in the background and scrape while it's live.
	var wg sync.WaitGroup
	wg.Add(1)
	var qerr error
	go func() {
		defer wg.Done()
		_, qerr = eng.RunTPCH(9)
	}()

	sawInFlight := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var snap struct {
			Queries []map[string]any `json:"queries"`
		}
		body := httpGet(t, base+"/queries")
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("bad /queries JSON: %v\n%s", err, body)
		}
		for _, q := range snap.Queries {
			if q["label"] != "tpch-q9" {
				continue
			}
			sawInFlight = true
			// One flat object: identity, then every counter of the table
			// under its key (zero or not), then the spans so far.
			for k := metrics.Counter(0); k < metrics.NumCounters; k++ {
				if _, ok := q[k.Def().JSON]; !ok {
					t.Fatalf("/queries entry has no %q:\n%s", k.Def().JSON, body)
				}
			}
			if _, ok := q["elapsed_seconds"].(float64); !ok || q["id"] != 2.0 {
				t.Fatalf("/queries entry identity wrong:\n%s", body)
			}
		}
		if sawInFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	if qerr != nil {
		t.Fatal(qerr)
	}
	if !sawInFlight {
		t.Fatal("never observed tpch-q9 in the /queries snapshot")
	}

	metricsText := string(httpGet(t, base+"/metrics"))
	for _, want := range []string{
		"spilly_queries_started_total",
		"spilly_queries_completed_total",
		"spilly_spill_retries_total",
		"spilly_query_spill_stall_seconds",
		"spilly_query_prefetched_partitions_total",
		`spilly_device_written_bytes_total{array="spill",device="0"}`,
		"spilly_device_read_backlog_seconds",
	} {
		if !strings.Contains(metricsText, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metricsText[:min(len(metricsText), 2000)])
		}
	}
	// Completed counter must cover the warm-up and the background query.
	if !strings.Contains(metricsText, "spilly_queries_completed_total 2") {
		t.Fatalf("completed counter wrong:\n%s", metricsText[:min(len(metricsText), 600)])
	}

	if body := string(httpGet(t, base+"/debug/pprof/")); !strings.Contains(body, "goroutine") {
		t.Fatal("pprof index not served")
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestProfileShowsSpillStall: a profiled spilling query must attribute
// spill-readback stall time per operator and report scheduler prefetch, in
// the stats and in the rendered tree.
func TestProfileShowsSpillStall(t *testing.T) {
	eng, err := Open(Config{Workers: 2, MemoryBudget: 256 << 10, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTPCH(0.01, false); err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunTPCH(9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpillReadBytes == 0 {
		t.Fatal("Q9 under a 256KB budget did not read back spilled pages")
	}
	if res.Stats.SpillStallTime <= 0 {
		t.Fatal("no spill stall time recorded for a spilling query")
	}
	if res.Stats.PrefetchedPartitions == 0 {
		t.Fatal("no partitions prefetched; the readback scheduler never ran ahead")
	}
	text := FormatProfile(res.Profile())
	if !strings.Contains(text, "stall=") || !strings.Contains(text, "prefetched=") {
		t.Fatalf("rendered profile missing stall attribution:\n%s", text)
	}
	if n := eng.Totals(); n[metrics.SpillStallNanos] <= 0 || n[metrics.PrefetchedPartitions] == 0 {
		t.Fatalf("engine totals stall=%dns prefetched=%d, want both positive",
			n[metrics.SpillStallNanos], n[metrics.PrefetchedPartitions])
	}
}

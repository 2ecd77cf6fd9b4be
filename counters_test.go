package spilly

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/exec"
	"github.com/spilly-db/spilly/internal/iosched"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/obsrv"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/tpch"
	"github.com/spilly-db/spilly/internal/uring"
)

// TestCounterTableMatchesStats pins the one hand-written projection of the
// counter table: every counter lands in exactly one Stats field of the type
// its unit calls for, no two counters share a field, and every Stats field
// that is not derived or per-query context has a counter behind it.
func TestCounterTableMatchesStats(t *testing.T) {
	notCounters := map[string]bool{
		"Duration": true, "TuplesPerSec": true, "CyclesPerByte": true,
		"AdmissionWait": true, "MemoryGrant": true, "AllocApprox": true,
		"Schemes": true,
	}
	statsType := reflect.TypeOf(Stats{})
	fed := map[string]bool{}
	for k := metrics.Counter(0); k < metrics.NumCounters; k++ {
		d := k.Def()
		var n metrics.Snapshot
		n[k] = 1
		st := reflect.ValueOf(statsFrom(&n, 0))
		var hit []string
		for i := 0; i < st.NumField(); i++ {
			if !st.Field(i).IsZero() {
				hit = append(hit, statsType.Field(i).Name)
			}
		}
		if len(hit) != 1 {
			t.Errorf("counter %s feeds Stats fields %v, want exactly one", d.JSON, hit)
			continue
		}
		f, _ := statsType.FieldByName(hit[0])
		wantType := reflect.TypeOf(int64(0))
		switch d.Unit {
		case metrics.Nanos:
			wantType = reflect.TypeOf(time.Duration(0))
		case metrics.Flag:
			wantType = reflect.TypeOf(false)
		}
		if f.Type != wantType {
			t.Errorf("counter %s → Stats.%s is a %v, want %v", d.JSON, f.Name, f.Type, wantType)
		}
		if notCounters[f.Name] || fed[f.Name] {
			t.Errorf("counter %s → Stats.%s, which is derived or already fed by another counter", d.JSON, f.Name)
		}
		fed[f.Name] = true
	}
	for i := 0; i < statsType.NumField(); i++ {
		if name := statsType.Field(i).Name; !fed[name] && !notCounters[name] {
			t.Errorf("Stats.%s has no counter behind it", name)
		}
	}
}

// TestSpansAddUpToQueryTotals is the one-report invariant: operators hand
// every counter over once, to the query and its span together, so over a
// traced query the spans' Sum counters add up to the query total and the
// largest span value of a Max counter is the query's.
func TestSpansAddUpToQueryTotals(t *testing.T) {
	run := func(t *testing.T, eng *Engine, name string, spills bool, build func(*exec.Ctx) (Node, error)) {
		t.Helper()
		ctx := eng.NewCtx()
		plan, err := build(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := eng.RunCtx(ctx, plan); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total := ctx.Stats.Load()
		if total[metrics.ScannedRows] == 0 || total[metrics.TuplesStored] == 0 {
			t.Fatalf("%s: query totals empty: %v", name, total)
		}
		if spills && (total[metrics.SpilledBytes] == 0 || total[metrics.SpillReadBytes] == 0 || total[metrics.SpillStallNanos] == 0) {
			t.Fatalf("%s did not spill, read back and stall: %v", name, total)
		}
		var spans metrics.Snapshot
		for _, sp := range ctx.Trace.Snapshots() {
			spans.Merge(&sp.Snapshot)
		}
		for k := metrics.Counter(0); k < metrics.NumCounters; k++ {
			if spans[k] != total[k] {
				t.Errorf("%s: %s: spans give %d, query total is %d", name, k.Def().JSON, spans[k], total[k])
			}
		}
	}

	t.Run("tpch", func(t *testing.T) {
		eng, err := Open(Config{Workers: 2, MemoryBudget: 512 << 10, Compression: true, Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadTPCH(0.01, true); err != nil {
			t.Fatal(err)
		}
		// Q9 spills at this scale; Q18 partitions but fits.
		for _, q := range []int{9, 18} {
			run(t, eng, fmt.Sprintf("Q%d", q), q == 9, func(ctx *exec.Ctx) (Node, error) {
				return tpch.BuildQuery(ctx, eng.TPCH(), q)
			})
		}
	})

	// The ledger's micro_spill plans, on its two slowed spill devices.
	t.Run("micro", func(t *testing.T) {
		eng, err := Open(Config{
			Workers: 2, MemoryBudget: 1 << 20, Compression: true, Profile: true,
			Device: DefaultDevice.Scaled(0.25), SpillDevices: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadTPCH(0.01, true); err != nil {
			t.Fatal(err)
		}
		lineitem, err := eng.Table(tpch.Lineitem)
		if err != nil {
			t.Fatal(err)
		}
		for name, plan := range map[string]Node{
			"agg":  eng.AggMicroPlan(),
			"join": eng.JoinMicroPlan(),
			"sort": &ExtSortNode{
				Child: NewScan(lineitem, "l_orderkey", "l_extendedprice", "l_shipdate", "l_comment"),
				Keys:  []SortKey{{Col: "l_extendedprice", Desc: true}, {Col: "l_orderkey"}},
			},
			"window": NewWindow(
				NewScan(lineitem, "l_orderkey", "l_linenumber", "l_shipdate", "l_extendedprice"),
				[]string{"l_orderkey"},
				[]SortKey{{Col: "l_shipdate"}, {Col: "l_linenumber"}},
				[]WindowSpec{{Func: WRowNumber, As: "rn"}}),
		} {
			run(t, eng, name, true, func(*exec.Ctx) (Node, error) { return plan, nil })
		}
	})
}

// exposition, when set, makes TestMetricsExposition also check a /metrics
// document scraped from another process (make profile-smoke curls one from
// spillyquery -serve).
var exposition = flag.String("exposition", "", "also check this scraped /metrics file")

// goldenFamilies are the families /metrics served before the counter table
// existed. Dashboards key on these names and types: a rename must fail here.
const goldenFamilies = `spilly_bufcache_blocks gauge
spilly_bufcache_hits_total counter
spilly_bufcache_misses_total counter
spilly_bufcache_oversized_total counter
spilly_bufcache_used_bytes gauge
spilly_device_dead gauge
spilly_device_errors_total counter
spilly_device_io_errors_total counter
spilly_device_read_backlog_seconds gauge
spilly_device_read_bytes_total counter
spilly_device_reads_total counter
spilly_device_spill_bytes gauge
spilly_device_write_backlog_seconds gauge
spilly_device_writes_total counter
spilly_device_written_bytes_total counter
spilly_engine_active_queries gauge
spilly_engine_admission_granted_bytes gauge
spilly_engine_admission_queued gauge
spilly_engine_admission_timeouts_total counter
spilly_engine_admission_total_bytes gauge
spilly_engine_admission_wait_seconds counter
spilly_engine_admissions_total counter
spilly_iosched_aged_total counter
spilly_iosched_deferred_total counter
spilly_iosched_device_backlog_seconds gauge
spilly_iosched_device_depth gauge
spilly_iosched_device_queued gauge
spilly_iosched_dispatched_total counter
spilly_iosched_inflight gauge
spilly_iosched_queued gauge
spilly_queries_canceled_total counter
spilly_queries_completed_total counter
spilly_queries_failed_total counter
spilly_queries_in_flight gauge
spilly_queries_started_total counter
spilly_query_alloc_bytes_total counter
spilly_query_alloc_objects_total counter
spilly_query_gc_cycles_total counter
spilly_query_gc_pause_seconds_total counter
spilly_query_prefetched_partitions_total counter
spilly_query_spill_stall_seconds counter
spilly_spill_checksum_errors_total counter
spilly_spill_failovers_total counter
spilly_spill_lease_live_bytes gauge
spilly_spill_leases gauge
spilly_spill_live_extents gauge
spilly_spill_pages_verified_total counter
spilly_spill_reconstructions_total counter
spilly_spill_retries_total counter`

var (
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	labelSet   = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*$`)
)

// parseExposition checks a Prometheus text-format document — every family
// has one HELP and one TYPE line, its samples follow it contiguously, and
// every sample parses as `name{labels} float` — and returns each family's
// type and samples (label set → value).
func parseExposition(text string) (types map[string]string, samples map[string]map[string]float64, err error) {
	types, samples = map[string]string{}, map[string]map[string]float64{}
	cur, helped := "", ""
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fail := func(msg string) error { return fmt.Errorf("line %d %q: %s", i+1, line, msg) }
		switch f := strings.SplitN(line, " ", 4); {
		case strings.HasPrefix(line, "# HELP "):
			if len(f) < 4 {
				return nil, nil, fail("HELP without text")
			}
			helped = f[2]
		case strings.HasPrefix(line, "# TYPE "):
			if len(f) != 4 || (f[3] != "counter" && f[3] != "gauge") {
				return nil, nil, fail("malformed TYPE")
			}
			if _, dup := types[f[2]]; dup {
				return nil, nil, fail("second TYPE line for this family")
			}
			if helped != f[2] {
				return nil, nil, fail("TYPE not preceded by the family's HELP")
			}
			cur = f[2]
			types[cur], samples[cur] = f[3], map[string]float64{}
		default:
			m := sampleLine.FindStringSubmatch(line)
			if m == nil {
				return nil, nil, fail("not a sample line")
			}
			if m[1] != cur {
				return nil, nil, fail("sample outside its family's block (current family " + cur + ")")
			}
			if m[2] != "" && !labelSet.MatchString(m[2]) {
				return nil, nil, fail("malformed label set")
			}
			v, perr := strconv.ParseFloat(m[3], 64)
			if perr != nil {
				return nil, nil, fail("value is not a float")
			}
			if _, dup := samples[cur][m[2]]; dup {
				return nil, nil, fail("duplicate sample")
			}
			samples[cur][m[2]] = v
		}
	}
	return types, samples, nil
}

// checkFamilies parses a /metrics document and checks the golden families
// and every table counter are there with their types.
func checkFamilies(t *testing.T, text string) map[string]map[string]float64 {
	t.Helper()
	types, samples, err := parseExposition(text)
	if err != nil {
		t.Fatalf("/metrics is not valid exposition format: %v", err)
	}
	for _, line := range strings.Split(goldenFamilies, "\n") {
		name, typ, _ := strings.Cut(line, " ")
		if types[name] != typ {
			t.Errorf("family %s: type %q, want %q (a pre-existing family was renamed or retyped)", name, types[name], typ)
		}
	}
	for k := metrics.Counter(0); k < metrics.NumCounters; k++ {
		d := k.Def()
		want := "counter"
		if d.Kind == metrics.Max {
			want = "gauge"
		}
		if types[d.Family] != want || len(samples[d.Family]) != 1 {
			t.Errorf("counter %s: family %s has type %q and %d samples, want %s with one",
				d.JSON, d.Family, types[d.Family], len(samples[d.Family]), want)
		}
	}
	return samples
}

// TestMetricFamilyValues pins which stats field feeds which family (ported
// from the old obsrv TestMetricsEndpoint, which fed its mirror structs the
// same way): a scrape holding a different value in every field renders
// exactly these samples, so a Hits/Misses or ReadDepth/WriteDepth swap in
// serve.go fails here.
func TestMetricFamilyValues(t *testing.T) {
	ms := time.Millisecond
	s := &scrape{
		faults: metrics.FaultCounts{StartedQueries: 9, CompletedQueries: 5, FailedQueries: 3, CanceledQueries: 1,
			DeviceErrors: map[int]int64{2: 4, 0: 7}},
		active:      6,
		governor:    pages.GovernorStats{Total: 1 << 20, Granted: 4096, Queued: 7, Admitted: 11, Timeouts: 13, WaitTotal: 1500 * ms},
		leases:      17,
		liveExtents: 19,
		leaseLive:   map[uint64]int64{12: 8192, 3: 512},
		bufCache:    colstore.CacheStats{Hits: 10, Misses: 4, Used: 8192, Blocks: 2, Oversized: 1},
		ioScheds: []IOSchedSnapshot{
			{Name: "spill", Stats: iosched.Stats{Aged: 3, Queued: 7, Inflight: 8},
				Devices: []iosched.DeviceStats{{ReadDepth: 6, WriteDepth: 2, ReadQueued: 4, WriteQueued: 3,
					ReadBacklog: 250 * ms, WriteBacklog: 500 * ms}}},
			{Name: "table", Stats: iosched.Stats{Aged: 32, Queued: 33, Inflight: 34},
				Devices: []iosched.DeviceStats{{}, {ReadDepth: 35}}},
		},
		spillDevs: []nvmesim.DeviceStats{{}, {BytesRead: 41, BytesWritten: 4096, Reads: 43, Writes: 44, SpillBytes: 45,
			ReadBacklog: 2 * ms, WriteBacklog: 3 * ms, ReadErrors: 1, WriteErrors: 2, Dead: true}},
		tableDevs: []nvmesim.DeviceStats{{BytesRead: 51, BytesWritten: 52}},
	}
	s.ioScheds[0].Stats.Classes[uring.ClassDemand] = iosched.ClassCounters{Dispatched: 100, Deferred: 2}
	s.ioScheds[0].Stats.Classes[uring.ClassPrefetch] = iosched.ClassCounters{Dispatched: 40, Deferred: 30}
	s.ioScheds[1].Stats.Classes[uring.ClassBackground] = iosched.ClassCounters{Dispatched: 61, Deferred: 62}
	for k := range s.totals {
		s.totals[k] = int64(1000 + k)
	}
	s.totals[metrics.SpillStallNanos] = int64(2500 * ms)

	rec := httptest.NewRecorder()
	(&obsrv.Server{Collect: s.families}).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	checkFamilies(t, body)
	for _, want := range []string{
		"# TYPE spilly_queries_started_total counter",
		"spilly_queries_started_total 9",
		"spilly_queries_completed_total 5",
		"spilly_queries_failed_total 3",
		"spilly_queries_canceled_total 1",
		`spilly_device_errors_total{device="0"} 7` + "\n" + `spilly_device_errors_total{device="2"} 4`,
		"spilly_queries_in_flight 6",
		fmt.Sprintf("spilly_spill_retries_total %d", 1000+metrics.SpillRetries),
		fmt.Sprintf("spilly_spill_failovers_total %d", 1000+metrics.SpillFailovers),
		fmt.Sprintf("spilly_query_scan_stalls_total %d", 1000+metrics.ScanStalls),
		fmt.Sprintf("spilly_query_budget_peak_bytes %d", 1000+metrics.BudgetPeakBytes),
		"spilly_query_spill_stall_seconds 2.5",
		"spilly_engine_active_queries 6",
		"spilly_engine_admission_queued 7",
		"spilly_engine_admission_granted_bytes 4096",
		"spilly_engine_admission_total_bytes 1.048576e+06",
		"spilly_engine_admissions_total 11",
		"spilly_engine_admission_timeouts_total 13",
		"spilly_engine_admission_wait_seconds 1.5",
		"spilly_spill_leases 17",
		"spilly_spill_live_extents 19",
		`spilly_spill_lease_live_bytes{lease="3"} 512` + "\n" + `spilly_spill_lease_live_bytes{lease="12"} 8192`,
		"spilly_bufcache_hits_total 10",
		"spilly_bufcache_misses_total 4",
		"spilly_bufcache_used_bytes 8192",
		"spilly_bufcache_blocks 2",
		"spilly_bufcache_oversized_total 1",
		`spilly_iosched_dispatched_total{array="spill",class="demand"} 100`,
		`spilly_iosched_dispatched_total{array="spill",class="prefetch"} 40`,
		`spilly_iosched_dispatched_total{array="spill",class="spill_write"} 0`,
		`spilly_iosched_dispatched_total{array="table",class="background"} 61`,
		`spilly_iosched_deferred_total{array="spill",class="demand"} 2`,
		`spilly_iosched_deferred_total{array="spill",class="prefetch"} 30`,
		`spilly_iosched_deferred_total{array="table",class="background"} 62`,
		`spilly_iosched_aged_total{array="spill"} 3`,
		`spilly_iosched_aged_total{array="table"} 32`,
		`spilly_iosched_queued{array="spill"} 7`,
		`spilly_iosched_queued{array="table"} 33`,
		`spilly_iosched_inflight{array="spill"} 8`,
		`spilly_iosched_inflight{array="table"} 34`,
		`spilly_iosched_device_depth{array="spill",device="0",channel="read"} 6`,
		`spilly_iosched_device_depth{array="spill",device="0",channel="write"} 2`,
		`spilly_iosched_device_depth{array="table",device="1",channel="read"} 35`,
		`spilly_iosched_device_queued{array="spill",device="0",channel="read"} 4`,
		`spilly_iosched_device_queued{array="spill",device="0",channel="write"} 3`,
		`spilly_iosched_device_backlog_seconds{array="spill",device="0",channel="read"} 0.25`,
		`spilly_iosched_device_backlog_seconds{array="spill",device="0",channel="write"} 0.5`,
		`spilly_device_read_bytes_total{array="spill",device="1"} 41`,
		`spilly_device_read_bytes_total{array="table",device="0"} 51`,
		`spilly_device_written_bytes_total{array="spill",device="0"} 0`,
		`spilly_device_written_bytes_total{array="spill",device="1"} 4096`,
		`spilly_device_written_bytes_total{array="table",device="0"} 52`,
		`spilly_device_reads_total{array="spill",device="1"} 43`,
		`spilly_device_writes_total{array="spill",device="1"} 44`,
		`spilly_device_spill_bytes{array="spill",device="1"} 45`,
		`spilly_device_read_backlog_seconds{array="spill",device="1"} 0.002`,
		`spilly_device_write_backlog_seconds{array="spill",device="1"} 0.003`,
		`spilly_device_io_errors_total{array="spill",device="1"} 3`,
		`spilly_device_dead{array="spill",device="0"} 0`,
		`spilly_device_dead{array="spill",device="1"} 1`,
	} {
		if !strings.Contains(body, "\n"+want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("/metrics:\n%s", body)
	}
}

// TestMetricsExposition scrapes a live engine after a spilling query.
func TestMetricsExposition(t *testing.T) {
	if *exposition != "" {
		text, err := os.ReadFile(*exposition)
		if err != nil {
			t.Fatal(err)
		}
		checkFamilies(t, string(text))
	}

	eng, err := Open(Config{
		Workers: 2, MemoryBudget: 512 << 10, Compression: true,
		CacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTPCH(0.01, true); err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunTPCH(9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpilledBytes == 0 {
		t.Fatal("Q9 under a 512 KiB budget did not spill")
	}
	eng.Faults().DeviceError(2, 4)
	rec := httptest.NewRecorder()
	eng.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	samples := checkFamilies(t, rec.Body.String())

	// The engine is idle: every subsystem's sample equals what its own
	// accessor reports now (TestMetricFamilyValues pins field → family; this
	// pins accessor → scrape, e.g. the two arrays under their own labels).
	bc, gov, sched := eng.BufferCacheStats(), eng.GovernorStats(), eng.IOSchedSnapshots()
	spill, table := eng.SpillArray().PerDevice(), eng.TableArray().PerDevice()
	for _, w := range []struct {
		family, labels string
		want           int64
	}{
		{"spilly_queries_started_total", "", eng.Faults().Snapshot().StartedQueries},
		{"spilly_device_errors_total", `device="2"`, 4},
		{"spilly_engine_admissions_total", "", gov.Admitted},
		{"spilly_engine_admission_total_bytes", "", gov.Total},
		{"spilly_bufcache_misses_total", "", bc.Misses},
		{"spilly_bufcache_used_bytes", "", bc.Used},
		{"spilly_iosched_dispatched_total", `array="spill",class="spill_write"`, sched[0].Stats.Classes[uring.ClassSpillWrite].Dispatched},
		{"spilly_iosched_dispatched_total", `array="table",class="prefetch"`, sched[1].Stats.Classes[uring.ClassPrefetch].Dispatched},
		{"spilly_device_written_bytes_total", `array="spill",device="0"`, spill[0].BytesWritten},
		{"spilly_device_reads_total", `array="spill",device="0"`, spill[0].Reads},
		{"spilly_device_read_bytes_total", `array="table",device="0"`, table[0].BytesRead},
		{"spilly_device_writes_total", `array="table",device="7"`, table[7].Writes},
	} {
		if got, ok := samples[w.family][w.labels]; !ok || got != float64(w.want) || w.want == 0 {
			t.Errorf("%s{%s} = %v (present %v), the engine's accessor says %d; want equal and non-zero",
				w.family, w.labels, got, ok, w.want)
		}
	}

	// The table families carry the engine's lifetime totals, durations in
	// seconds.
	total := eng.Totals()
	for k := metrics.Counter(0); k < metrics.NumCounters; k++ {
		d := k.Def()
		want := float64(total[k])
		if d.Unit == metrics.Nanos {
			want /= 1e9
		}
		if got := samples[d.Family][""]; got < want*0.999999 || got > want*1.000001 {
			t.Errorf("%s = %g, engine total is %g", d.Family, got, want)
		}
	}
	for _, k := range []metrics.Counter{
		metrics.ScannedRows, metrics.ScannedBytes, metrics.TuplesStored, metrics.Partitioned,
		metrics.SpilledBytes, metrics.WrittenBytes, metrics.SpillReadBytes, metrics.SpilledOps,
		metrics.SpillStallNanos, metrics.ScanStallNanos, metrics.ScanStalls, metrics.DemandReads,
		metrics.AllocObjects, metrics.AllocBytes, metrics.BudgetPeakBytes,
	} {
		if total[k] <= 0 {
			t.Errorf("%s = %d after a spilling cold Q9, want > 0", k.Def().Family, total[k])
		}
	}

	// Labelled families: one sample per label set, both arrays under one
	// header.
	for family, labels := range map[string][]string{
		"spilly_device_written_bytes_total":     {`array="spill",device="0"`, `array="spill",device="7"`, `array="table",device="0"`},
		"spilly_device_spill_bytes":             {`array="spill",device="0"`, `array="table",device="7"`},
		"spilly_iosched_dispatched_total":       {`array="spill",class="demand"`, `array="spill",class="spill_write"`, `array="table",class="prefetch"`, `array="table",class="background"`},
		"spilly_iosched_deferred_total":         {`array="spill",class="prefetch"`},
		"spilly_iosched_aged_total":             {`array="spill"`},
		"spilly_iosched_queued":                 {`array="spill"`},
		"spilly_iosched_inflight":               {`array="table"`},
		"spilly_iosched_device_depth":           {`array="spill",device="0",channel="read"`, `array="table",device="7",channel="write"`},
		"spilly_iosched_device_queued":          {`array="spill",device="0",channel="write"`},
		"spilly_iosched_device_backlog_seconds": {`array="spill",device="0",channel="read"`},
	} {
		for _, l := range labels {
			if _, ok := samples[family][l]; !ok {
				t.Errorf("%s has no sample {%s}; it has %v", family, l, samples[family])
			}
		}
	}
	if got := samples["spilly_device_written_bytes_total"]; len(got) != 16 {
		t.Errorf("spilly_device_written_bytes_total has %d samples, want 8 spill + 8 table devices", len(got))
	}
	if samples["spilly_queries_completed_total"][""] != 1 || samples["spilly_queries_in_flight"][""] != 0 {
		t.Errorf("completed = %v, in flight = %v, want 1 and 0",
			samples["spilly_queries_completed_total"], samples["spilly_queries_in_flight"])
	}
	if samples["spilly_bufcache_misses_total"][""] == 0 {
		t.Errorf("bufcache misses = %v, want > 0", samples["spilly_bufcache_misses_total"])
	}
}

package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	spilly "github.com/spilly-db/spilly"
	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/iosched"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/tpch"
	"github.com/spilly-db/spilly/internal/trace"
	"github.com/spilly-db/spilly/internal/uring"
)

const mb = 1 << 20

// span is one interval the benchmark recorded around a call into the engine.
// Spans of one query share Query; times are nanoseconds since the log began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Query  int    `json:"query"`  // -1 outside any query
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// rootSpan is the "workload" span, which newSpanLog opens and every other
// span descends from.
const rootSpan = 0

func newSpanLog() *spanLog {
	l := &spanLog{t0: time.Now()}
	l.begin("workload", -1, -1)
	return l
}

func (l *spanLog) begin(name string, parent, query int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: time.Since(l.t0).Nanoseconds()})
	return id
}

func (l *spanLog) end(id int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].End = time.Since(l.t0).Nanoseconds()
}

// selfByName sums, per span name, each span's duration minus the part its
// children cover.
func (l *spanLog) selfByName() map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	self := make([]int64, len(l.spans))
	for _, s := range l.spans {
		self[s.ID] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range l.spans {
		out[s.Name] += time.Duration(self[s.ID])
	}
	return out
}

// snapshot is the engine's public cumulative counters at one instant; layer
// counts are differences of two snapshots around the untraced window.
type snapshot struct {
	spill, table nvmesim.Stats
	sched        map[string]iosched.Stats
	cache        colstore.CacheStats
	gov          pages.GovernorStats
	mem          runtime.MemStats
}

func takeSnapshot(e *spilly.Engine) snapshot {
	s := snapshot{
		spill: e.SpillArray().Stats(),
		table: e.TableArray().Stats(),
		sched: map[string]iosched.Stats{},
		cache: e.BufferCacheStats(),
		gov:   e.GovernorStats(),
	}
	for _, sn := range e.IOSchedSnapshots() {
		s.sched[sn.Name] = sn.Stats
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// layerCounters derives the per-layer counts of the untraced window. "Per
// pass" is per client pass over the jobs: the window's total over rounds ×
// clients.
func layerCounters(m metrics, w workload, e *spilly.Engine, rounds []roundRec, before, after snapshot) {
	var wall time.Duration
	var execs float64
	var st spilly.Stats
	var grant float64
	schemes := map[string]int64{}
	for _, rd := range rounds {
		wall += rd.wall
		for _, x := range rd.execs {
			execs++
			s := x.stats
			st.ScannedBytes += s.ScannedBytes
			st.SpilledBytes += s.SpilledBytes
			st.WrittenBytes += s.WrittenBytes
			st.SpillReadBytes += s.SpillReadBytes
			st.SpilledOps += s.SpilledOps
			st.SpillStallTime += s.SpillStallTime
			st.PrefetchedPartitions += s.PrefetchedPartitions
			st.ScanStallTime += s.ScanStallTime
			st.ScanStalls += s.ScanStalls
			st.DemandReads += s.DemandReads
			st.DemandReadTime += s.DemandReadTime
			st.AdmissionWait += s.AdmissionWait
			grant += float64(s.MemoryGrant)
			for name, n := range s.Schemes {
				schemes[name] += n
			}
		}
	}
	passes := float64(len(rounds) * w.clients)
	perPass := func(v float64) float64 { return ratio(v, passes) }

	// tpch, exec: what each job took.
	typeMS := typeMedianMS(w, rounds)
	for q := 1; q <= tpch.NumQueries; q++ {
		m.set(fmt.Sprintf("tpch.q%02d_ms", q), "ms", typeMS[fmt.Sprintf("q%02d", q)])
	}
	for _, j := range microJobs() {
		m.set("exec."+j.name+"_micro_ms", "ms", typeMS[j.name])
	}

	// engine: heap and collector activity of the whole process.
	m.set("engine.alloc_mb_per_pass", "MB", perPass(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/mb))
	m.set("engine.gc_pause_ms_per_pass", "ms", perPass(float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6))
	m.set("engine.gc_cycles_per_pass", "count", perPass(float64(after.mem.NumGC-before.mem.NumGC)))

	// core: Umami's spill path.
	m.set("core.spilled_mb_per_pass", "MB", perPass(float64(st.SpilledBytes)/mb))
	m.set("core.written_mb_per_pass", "MB", perPass(float64(st.WrittenBytes)/mb))
	m.set("core.spill_read_mb_per_pass", "MB", perPass(float64(st.SpillReadBytes)/mb))
	m.set("core.spill_frac", "fraction", ratio(float64(st.SpilledBytes), float64(st.ScannedBytes)))
	m.set("core.compress_ratio", "ratio", ratio(float64(st.SpilledBytes), float64(st.WrittenBytes)))
	m.set("core.spill_stall_ms_per_pass", "ms", perPass(ms(st.SpillStallTime)))
	m.set("core.prefetched_parts_per_pass", "count", perPass(float64(st.PrefetchedPartitions)))
	m.set("core.spilled_ops_per_pass", "count", perPass(float64(st.SpilledOps)))
	var pagesSpilled, pagesHeavy float64
	for name, n := range schemes {
		pagesSpilled += float64(n)
		if strings.HasPrefix(name, "deflate") || name == "bwt" {
			pagesHeavy += float64(n)
		}
	}
	m.set("core.deflate_page_share", "fraction", ratio(pagesHeavy, pagesSpilled))

	// colstore: external scans and the buffer cache.
	hits, misses := float64(after.cache.Hits-before.cache.Hits), float64(after.cache.Misses-before.cache.Misses)
	tableRead := float64(after.table.BytesRead - before.table.BytesRead)
	m.set("colstore.scan_stall_ms_per_pass", "ms", perPass(ms(st.ScanStallTime)))
	m.set("colstore.scan_stalls_per_pass", "count", perPass(float64(st.ScanStalls)))
	m.set("colstore.cache_hit_frac", "fraction", ratio(hits, hits+misses))
	m.set("colstore.table_read_mb_per_pass", "MB", perPass(tableRead/mb))
	var encoded, raw float64
	for _, name := range tpch.TableNames {
		if t, err := e.Table(name); err == nil {
			if dt, ok := t.(*colstore.DiskTable); ok {
				encoded += float64(dt.EncodedBytes())
				raw += float64(dt.RawBytes())
			}
		}
	}
	m.set("colstore.stored_bytes_per_raw_byte", "ratio", ratio(encoded, raw))

	// iosched: dispatches per class, and how often a request had to wait.
	var dispatched, deferred, promoted, aged float64
	for _, name := range []string{"spill", "table"} {
		a, b := after.sched[name], before.sched[name]
		for c := range a.Classes {
			dispatched += float64(a.Classes[c].Dispatched - b.Classes[c].Dispatched)
			deferred += float64(a.Classes[c].Deferred - b.Classes[c].Deferred)
		}
		promoted += float64(a.Promoted - b.Promoted)
		aged += float64(a.Aged - b.Aged)
	}
	class := func(sched string, c uring.Class) float64 {
		return perPass(float64(after.sched[sched].Classes[c].Dispatched - before.sched[sched].Classes[c].Dispatched))
	}
	m.set("iosched.spill.demand_per_pass", "count", class("spill", uring.ClassDemand))
	m.set("iosched.spill.write_per_pass", "count", class("spill", uring.ClassSpillWrite))
	m.set("iosched.spill.prefetch_per_pass", "count", class("spill", uring.ClassPrefetch))
	m.set("iosched.table.demand_per_pass", "count", class("table", uring.ClassDemand))
	m.set("iosched.table.prefetch_per_pass", "count", class("table", uring.ClassPrefetch))
	m.set("iosched.table.background_per_pass", "count", class("table", uring.ClassBackground))
	m.set("iosched.deferred_frac", "fraction", ratio(deferred, dispatched))
	m.set("iosched.promoted_per_pass", "count", perPass(promoted))
	m.set("iosched.aged_per_pass", "count", perPass(aged))
	m.set("iosched.demand_read_ms", "ms", ratio(ms(st.DemandReadTime), float64(st.DemandReads)))

	// nvmesim: bytes moved against what the array could move in the window.
	m.set("nvmesim.spill_write_util", "fraction", ratio(float64(after.spill.BytesWritten-before.spill.BytesWritten), wall.Seconds()*e.SpillArray().MaxWriteBandwidth()))
	m.set("nvmesim.spill_read_util", "fraction", ratio(float64(after.spill.BytesRead-before.spill.BytesRead), wall.Seconds()*e.SpillArray().MaxReadBandwidth()))
	m.set("nvmesim.table_read_util", "fraction", ratio(tableRead, wall.Seconds()*e.TableArray().MaxReadBandwidth()))

	// pages: the admission governor.
	m.set("pages.admission_wait_ms_per_query", "ms", ratio(ms(st.AdmissionWait), execs))
	m.set("pages.grant_mb_mean", "MB", ratio(grant/mb, execs))
	m.set("pages.admission_timeouts", "count", float64(after.gov.Timeouts-before.gov.Timeouts))
}

// tracedRound runs one more round with spans on and turns it into the
// per-operator self times, the plan-build time and the cost of tracing
// itself. The benchmark's own spans bracket the calls a query is made of; the
// engine's per-operator profile hangs off the tracer set on each ctx.
func tracedRound(m metrics, r *runner, rounds []roundRec, spans *spanLog) (warnings []string) {
	var mu sync.Mutex
	selfByOp := map[string]time.Duration{}
	var selfSum, total time.Duration
	passSpans := make([]int, r.w.clients)
	for c := range passSpans {
		passSpans[c] = spans.begin("pass", rootSpan, -1)
	}
	var nextQuery int
	traced := func(client int, j job) (*spilly.Result, error) {
		mu.Lock()
		qid := nextQuery
		nextQuery++
		mu.Unlock()
		q := spans.begin("query", passSpans[client], qid)
		defer spans.end(q)
		// Two contexts, because a context cannot be both built under and
		// admitted: Q11, Q15 and Q22 run subqueries at build time, whose
		// clean-ups hold the context's budget, and admission under load
		// swaps that budget for the grant (the clean-ups then release into
		// the wrong one and panic). The subqueries run on the build context,
		// traced like the plan itself.
		build := r.e.NewCtx()
		build.Trace = trace.New(build.Workers)
		pb, t0 := spans.begin("plan_build", q, qid), time.Now()
		node, err := j.build(r.e, build)
		buildProfile := build.Trace.Profile(time.Since(t0))
		spans.end(pb)
		build.Close()
		if err != nil {
			return nil, err
		}
		ctx := r.e.NewCtx()
		ctx.Trace = trace.New(ctx.Workers)
		ex := spans.begin("execute", q, qid)
		res, err := r.e.RunCtx(ctx, node)
		spans.end(ex)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		for _, p := range []*trace.Profile{buildProfile, res.Profile()} {
			total += p.Total
			selfSum += p.SelfSum()
			var walk func(n *trace.ProfileNode)
			walk = func(n *trace.ProfileNode) {
				selfByOp[n.Op] += n.Self
				for _, c := range n.Children {
					walk(c)
				}
			}
			for _, root := range p.Roots {
				walk(root)
			}
		}
		mu.Unlock()
		return res, nil
	}
	rd := r.round(traced)
	for _, id := range passSpans {
		spans.end(id)
	}

	clients := float64(r.w.clients)
	for _, op := range []string{"scan", "filter", "project", "join", "agg", "sort", "extsort", "window"} {
		m.set("exec."+op+"_self_ms", "ms", ms(selfByOp[op])/clients)
	}
	m.set("tpch.plan_build_ms_per_pass", "ms", ms(spans.selfByName()["plan_build"])/clients)
	coverage := ratio(float64(selfSum), float64(total))
	m.set("trace.self_coverage", "ratio", coverage)
	var untraced []float64
	for _, u := range rounds {
		untraced = append(untraced, u.wall.Seconds())
	}
	m.set("trace.overhead_frac", "fraction", ratio(rd.wall.Seconds(), median(untraced))-1)
	if coverage < 0.9 || coverage > 1.1 {
		warnings = append(warnings, fmt.Sprintf("trace.self_coverage %.3f is outside [0.9, 1.1]: operator self times do not add up to the query durations", coverage))
	}
	return warnings
}

// minQuery measures the engine's fixed cost per query — ctx, spill lease,
// admission, two ReadMemStats — on a scan of the 25-row nation table.
func minQuery(m metrics, e *spilly.Engine) {
	nation, err := e.Table(tpch.Nation)
	if err != nil {
		panic(err) // set-up loaded it
	}
	const n = 200
	var before, after runtime.MemStats
	lats := make([]float64, 0, n)
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := e.Run(spilly.NewScan(nation)); err != nil {
			panic(fmt.Sprintf("scan of nation failed: %v", err))
		}
		lats = append(lats, ms(time.Since(t0)))
	}
	runtime.ReadMemStats(&after)
	m.setSamples("engine.min_query_ms", "ms", lats)
	m.set("engine.allocs_per_query", "count", float64(after.Mallocs-before.Mallocs)/n)
}

// setUpLayers takes set-up apart — generate, then register and write to the
// table array — on a scratch engine, under spans, and runs the kernels on
// inputs cut from the generated tables.
func setUpLayers(m metrics, w workload, sf float64, spans *spanLog, rows int, rep time.Duration) error {
	setup := spans.begin("setup", rootSpan, -1)
	gen := spans.begin("gen", setup, -1)
	t0 := time.Now()
	tables := (&tpch.Gen{SF: sf}).All()
	m.set("tpch.gen_s", "s", time.Since(t0).Seconds())
	spans.end(gen)

	write := spans.begin("write_table", setup, -1)
	t0 = time.Now()
	scratch, err := spilly.Open(w.cfg)
	if err != nil {
		return fmt.Errorf("open scratch engine: %w", err)
	}
	if w.onArray {
		for name, t := range tables {
			scratch.RegisterTable(t)
			if err := scratch.StoreOnArray(name); err != nil {
				return fmt.Errorf("write %s to the table array: %w", name, err)
			}
		}
	}
	m.set("colstore.write_table_s", "s", time.Since(t0).Seconds())
	spans.end(write)
	spans.end(setup)

	kernels(m, tables[tpch.Lineitem], tables[tpch.Orders], rows, rep)
	return nil
}

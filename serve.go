package spilly

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/iosched"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/obsrv"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/trace"
	"github.com/spilly-db/spilly/internal/uring"
)

// Handler returns the engine's observability HTTP handler:
//
//   - /metrics — Prometheus text-format families: every counter of the
//     engine's counter table summed over executed queries (spilly_query_*,
//     spilly_spill_*), query lifecycle totals, admission governor, spill
//     leases, buffer-cache (spilly_bufcache_*) and shared-I/O-scheduler
//     (spilly_iosched_*) state, and per-device NVMe-array counters (bytes,
//     request counts, spill area, simulated queue backlog).
//   - /queries — JSON snapshot of in-flight queries with live counters
//     and, under Config.Profile, their operator spans so far.
//   - /debug/pprof/ — the standard Go profiling endpoints.
//
// The handler reads only atomic counters and short-lived snapshots, so it is
// safe to scrape while queries run.
func (e *Engine) Handler() http.Handler {
	srv := &obsrv.Server{
		Collect: func() []obsrv.Family { return e.scrape().families() },
		Queries: func() any { return e.queriesSnapshot() },
	}
	return srv.Handler()
}

// scrape is one /metrics request's view of the engine: every subsystem's own
// stats type, snapshotted once, so the families of one scrape are mutually
// consistent (hits against misses, deferred against dispatched).
type scrape struct {
	faults      metrics.FaultCounts
	totals      metrics.Snapshot // the counter table, over executed queries
	active      int
	governor    pages.GovernorStats
	leases      int64
	liveExtents int64
	leaseLive   map[uint64]int64
	bufCache    colstore.CacheStats
	ioScheds    []IOSchedSnapshot
	spillDevs   []nvmesim.DeviceStats
	tableDevs   []nvmesim.DeviceStats
}

func (e *Engine) scrape() *scrape {
	return &scrape{
		faults:      e.faults.Snapshot(),
		totals:      e.Totals(),
		active:      e.ActiveQueries(),
		governor:    e.GovernorStats(),
		leases:      e.spillArr.Leases(),
		liveExtents: e.spillArr.LiveExtents(),
		leaseLive:   e.spillArr.LeaseLiveBytes(),
		bufCache:    e.BufferCacheStats(),
		ioScheds:    e.IOSchedSnapshots(),
		spillDevs:   e.spillArr.PerDevice(),
		tableDevs:   e.tableArr.PerDevice(),
	}
}

// scalar is a family with one unlabelled sample.
func scalar[N int | int64 | float64](name, typ, help string, v N) obsrv.Family {
	return obsrv.Family{Name: name, Type: typ, Help: help, Samples: []obsrv.Sample{{Value: float64(v)}}}
}

// labelled is a stats value under the rendered label set that names it.
type labelled[S any] struct {
	labels string
	s      S
}

// vector is a family with one sample per labelled stats value, picked out
// of it by v.
func vector[S any, N int | int64 | float64](name, typ, help string, of []labelled[S], v func(S) N) obsrv.Family {
	ss := make([]obsrv.Sample, len(of))
	for i, l := range of {
		ss[i] = obsrv.Sample{Labels: l.labels, Value: float64(v(l.s))}
	}
	return obsrv.Family{Name: name, Type: typ, Help: help, Samples: ss}
}

// byID labels a per-id count map's entries label="<id>", in id order.
func byID[K int | uint64](counts map[K]int64, label string) []labelled[int64] {
	ids := make([]K, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]labelled[int64], len(ids))
	for i, id := range ids {
		out[i] = labelled[int64]{fmt.Sprintf("%s=\"%d\"", label, id), counts[id]}
	}
	return out
}

func self(n int64) int64 { return n }

// families is everything /metrics serves. The per-query counters come from
// the counter table; every other family reads its subsystem's own stats type.
func (s *scrape) families() []obsrv.Family {
	fc, gov, bc := s.faults, s.governor, s.bufCache
	fams := []obsrv.Family{
		scalar("spilly_queries_started_total", "counter", "Queries that began execution.", fc.StartedQueries),
		scalar("spilly_queries_completed_total", "counter", "Queries that finished successfully.", fc.CompletedQueries),
		scalar("spilly_queries_failed_total", "counter", "Queries that returned a fatal error.", fc.FailedQueries),
		scalar("spilly_queries_canceled_total", "counter", "Queries aborted by context cancellation.", fc.CanceledQueries),
		vector("spilly_device_errors_total", "counter", "Fatal I/O errors attributed to a device.",
			byID(fc.DeviceErrors, "device"), self),
		scalar("spilly_queries_in_flight", "gauge", "Queries currently executing.", s.active),
	}

	// Every counter of the table, summed (or maxed) over executed queries;
	// consecutive rows of one family are its labelled samples.
	for k := metrics.Counter(0); k < metrics.NumCounters; k++ {
		d, typ, v := k.Def(), "counter", float64(s.totals[k])
		if d.Kind == metrics.Max {
			typ = "gauge"
		}
		if d.Unit == metrics.Nanos {
			v /= 1e9 // exported in seconds
		}
		if last := len(fams) - 1; fams[last].Name == d.Family {
			fams[last].Samples = append(fams[last].Samples, obsrv.Sample{Labels: d.Labels.String(), Value: v})
			continue
		}
		fams = append(fams, obsrv.Family{Name: d.Family, Type: typ, Help: d.Help,
			Samples: []obsrv.Sample{{Labels: d.Labels.String(), Value: v}}})
	}

	fams = append(fams,
		scalar("spilly_engine_active_queries", "gauge", "Queries currently holding a memory grant and executing.", s.active),
		scalar("spilly_engine_admission_queued", "gauge", "Queries waiting in the admission queue for a memory grant.", gov.Queued),
		scalar("spilly_engine_admission_granted_bytes", "gauge", "Memory currently granted to admitted queries.", gov.Granted),
		scalar("spilly_engine_admission_total_bytes", "gauge", "The governed engine-wide memory budget.", gov.Total),
		scalar("spilly_engine_admissions_total", "counter", "Memory grants handed out to queries.", gov.Admitted),
		scalar("spilly_engine_admission_timeouts_total", "counter", "Queries that timed out waiting for admission.", gov.Timeouts),
		scalar("spilly_engine_admission_wait_seconds", "counter", "Total time admitted queries spent in the admission queue.",
			gov.WaitTotal.Seconds()),

		scalar("spilly_spill_leases", "gauge", "Spill leases created and not yet freed.", s.leases),
		scalar("spilly_spill_live_extents", "gauge", "Live spill extents across the array (returns to zero when idle).", s.liveExtents),
		vector("spilly_spill_lease_live_bytes", "gauge", "Spill bytes currently live under each query lease.",
			byID(s.leaseLive, "lease"), self),

		scalar("spilly_bufcache_hits_total", "counter", "Table blocks served from the buffer cache.", bc.Hits),
		scalar("spilly_bufcache_misses_total", "counter", "Table block lookups that missed the buffer cache.", bc.Misses),
		scalar("spilly_bufcache_used_bytes", "gauge", "Bytes currently held in the buffer cache.", bc.Used),
		scalar("spilly_bufcache_blocks", "gauge", "Blocks currently held in the buffer cache.", bc.Blocks),
		scalar("spilly_bufcache_oversized_total", "counter",
			"Block inserts refused for exceeding the per-shard capacity (cache capacity / 16).", bc.Oversized),
	)
	fams = append(fams, s.ioSchedFamilies()...)
	return append(fams, s.deviceFamilies()...)
}

// ioSchedFamilies exports the shared I/O schedulers: per-class dispatch
// totals plus per-device depth, queue, and backlog gauges, labelled by array.
func (s *scrape) ioSchedFamilies() []obsrv.Family {
	// One device channel's gauges; every device's read channel, then write.
	type channel struct {
		depth, queued int
		backlog       time.Duration
	}
	var (
		scheds   []labelled[iosched.Stats]
		classes  []labelled[iosched.ClassCounters]
		channels []labelled[channel]
	)
	for _, sn := range s.ioScheds {
		scheds = append(scheds, labelled[iosched.Stats]{fmt.Sprintf("array=%q", sn.Name), sn.Stats})
		for cls, c := range sn.Stats.Classes {
			classes = append(classes, labelled[iosched.ClassCounters]{
				fmt.Sprintf("array=%q,class=%q", sn.Name, uring.Class(cls)), c})
		}
	}
	for _, ch := range []string{"read", "write"} {
		for _, sn := range s.ioScheds {
			for i, d := range sn.Devices {
				c := channel{d.ReadDepth, d.ReadQueued, d.ReadBacklog}
				if ch == "write" {
					c = channel{d.WriteDepth, d.WriteQueued, d.WriteBacklog}
				}
				channels = append(channels, labelled[channel]{
					fmt.Sprintf("array=%q,device=\"%d\",channel=%q", sn.Name, i, ch), c})
			}
		}
	}
	return []obsrv.Family{
		vector("spilly_iosched_dispatched_total", "counter",
			"I/O requests the shared scheduler issued to the array, by priority class.",
			classes, func(c iosched.ClassCounters) int64 { return c.Dispatched }),
		vector("spilly_iosched_deferred_total", "counter",
			"Of the dispatched requests, those that waited at least one scheduling pass.",
			classes, func(c iosched.ClassCounters) int64 { return c.Deferred }),
		vector("spilly_iosched_aged_total", "counter",
			"Deferred requests dispatched above their class's share by the aging escape hatch.",
			scheds, func(s iosched.Stats) int64 { return s.Aged }),
		vector("spilly_iosched_queued", "gauge", "Requests currently deferred in the scheduler's queues.",
			scheds, func(s iosched.Stats) int64 { return s.Queued }),
		vector("spilly_iosched_inflight", "gauge", "Requests dispatched to the array and not yet complete.",
			scheds, func(s iosched.Stats) int64 { return s.Inflight }),
		vector("spilly_iosched_device_depth", "gauge",
			"Requests in flight on the device channel (the scheduler targets its depth target).",
			channels, func(c channel) int { return c.depth }),
		vector("spilly_iosched_device_queued", "gauge", "Requests deferred behind the device channel's depth target.",
			channels, func(c channel) int { return c.queued }),
		vector("spilly_iosched_device_backlog_seconds", "gauge",
			"Simulated device channel backlog (busy-until minus now) seen by the scheduler.",
			channels, func(c channel) float64 { return c.backlog.Seconds() }),
	}
}

// deviceFamilies exports per-device counters of both NVMe arrays: each
// family holds the spill array's devices, then the table array's.
func (s *scrape) deviceFamilies() []obsrv.Family {
	var devices []labelled[nvmesim.DeviceStats]
	for i, d := range s.spillDevs {
		devices = append(devices, labelled[nvmesim.DeviceStats]{fmt.Sprintf("array=\"spill\",device=\"%d\"", i), d})
	}
	for i, d := range s.tableDevs {
		devices = append(devices, labelled[nvmesim.DeviceStats]{fmt.Sprintf("array=\"table\",device=\"%d\"", i), d})
	}
	return []obsrv.Family{
		vector("spilly_device_read_bytes_total", "counter", "Bytes read from the device.",
			devices, func(d nvmesim.DeviceStats) int64 { return d.BytesRead }),
		vector("spilly_device_written_bytes_total", "counter", "Bytes written to the device.",
			devices, func(d nvmesim.DeviceStats) int64 { return d.BytesWritten }),
		vector("spilly_device_reads_total", "counter", "Read requests issued to the device.",
			devices, func(d nvmesim.DeviceStats) int64 { return d.Reads }),
		vector("spilly_device_writes_total", "counter", "Write requests issued to the device.",
			devices, func(d nvmesim.DeviceStats) int64 { return d.Writes }),
		vector("spilly_device_spill_bytes", "gauge", "Bytes currently allocated in the device spill area.",
			devices, func(d nvmesim.DeviceStats) int64 { return d.SpillBytes }),
		vector("spilly_device_read_backlog_seconds", "gauge", "Simulated read-channel backlog (busy-until minus now).",
			devices, func(d nvmesim.DeviceStats) float64 { return d.ReadBacklog.Seconds() }),
		vector("spilly_device_write_backlog_seconds", "gauge", "Simulated write-channel backlog (busy-until minus now).",
			devices, func(d nvmesim.DeviceStats) float64 { return d.WriteBacklog.Seconds() }),
		vector("spilly_device_io_errors_total", "counter", "I/O errors returned by the device (injected or organic).",
			devices, func(d nvmesim.DeviceStats) int64 { return d.ReadErrors + d.WriteErrors }),
		vector("spilly_device_dead", "gauge", "1 when the device has failed permanently.",
			devices, func(d nvmesim.DeviceStats) int {
				if d.Dead {
					return 1
				}
				return 0
			}),
	}
}

// Serve starts the observability endpoint on addr (e.g. ":8080", or ":0"
// for an ephemeral port) in a background goroutine. It returns the bound
// address and a shutdown func that closes the listener and any open
// connections.
func (e *Engine) Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: e.Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}

// queryStatus describes one in-flight query for the /queries endpoint: its
// identity, every counter of the table so far (flattened into the same JSON
// object under the table's keys) and, when the query runs with profiling
// enabled, its per-operator span forest so far.
type queryStatus struct {
	ID             int64                `json:"id"`
	Label          string               `json:"label"`
	ElapsedSeconds float64              `json:"elapsed_seconds"`
	Spans          []trace.SpanSnapshot `json:"spans,omitempty"`
	counters       metrics.Snapshot
}

func (q queryStatus) MarshalJSON() ([]byte, error) {
	type header queryStatus // drops this method, keeps the tags
	return q.counters.MarshalWith(header(q), false)
}

// queriesSnapshot renders the in-flight query registry for /queries.
func (e *Engine) queriesSnapshot() []queryStatus {
	e.qmu.Lock()
	qs := make([]*activeQuery, 0, len(e.active))
	for _, q := range e.active {
		qs = append(qs, q)
	}
	e.qmu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].id < qs[j].id })
	out := make([]queryStatus, 0, len(qs))
	for _, q := range qs {
		out = append(out, queryStatus{
			ID:             q.id,
			Label:          q.label,
			ElapsedSeconds: time.Since(q.start).Seconds(),
			Spans:          q.ctx.Trace.Snapshots(),
			counters:       q.ctx.Totals(),
		})
	}
	return out
}

// Package spilly is a Go reproduction of the query engine Spilly from
// "High-Performance Query Processing with NVMe Arrays: Spilling without
// Killing Performance" (SIGMOD 2024).
//
// The engine executes analytical queries over columnar tables with
// operators built on Umami — the paper's unified materialization interface —
// so the same hash join and hash aggregation run at in-memory speed on
// small inputs and transparently partition, compress, and spill to a
// (simulated) NVMe array when memory runs out. See DESIGN.md for the
// architecture and the hardware-simulation substitutions.
//
// Basic use:
//
//	eng, _ := spilly.Open(spilly.Config{MemoryBudget: 1 << 30})
//	eng.LoadTPCH(0.01, false)
//	res, _ := eng.RunTPCH(1)
//	fmt.Println(res.Table())
package spilly

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/exec"
	"github.com/spilly-db/spilly/internal/iosched"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/tpch"
	"github.com/spilly-db/spilly/internal/trace"
)

// Baseline selects which engine of the paper's evaluation this one behaves
// as (§4.1/§4.2, Figures 2 and 9, §6.5).
type Baseline int

// Baselines: Adaptive is Umami; the others are the systems the paper
// measures it against, as configurations of the same operators.
const (
	// Adaptive starts unpartitioned and partitions and spills at runtime as
	// memory runs out.
	Adaptive Baseline = iota
	// NeverPartition never partitions; once memory runs out it spills
	// whatever page comes next.
	NeverPartition
	// InMemoryOnly never partitions and cannot spill: an out-of-memory query
	// fails with ErrOutOfMemory (the pure in-memory engine).
	InMemoryOnly
	// AlwaysPartition partitions from the first tuple.
	AlwaysPartition
	// Grace partitions from the first tuple, runs every join as a classical
	// grace hash join and aggregates without local pre-aggregation — the
	// always-partitioning systems of Figure 2.
	Grace
	// SpillAll partitions from the start and, once memory runs out, spills
	// every partition instead of picking victims (§6.5's non-hybrid engine).
	SpillAll
)

// DeviceSpec describes one simulated NVMe SSD.
type DeviceSpec = nvmesim.DeviceSpec

// QueryError is the structured failure a query returns: the failing
// operator, the partition and NVMe device involved (when known), a
// remediation hint for configuration-class failures (e.g. a full spill
// area), and the underlying cause. Every fatal I/O error and every escaped
// worker panic surfaces as a *QueryError from Run — never a hang, a crash,
// or an opaque internal error. ErrOutOfMemory is the one exception: it is
// returned by identity so callers can compare it directly.
type QueryError = core.QueryError

// ErrOutOfMemory is returned (by identity, never wrapped) when a query
// exceeds its memory budget and spilling is disabled or unavailable.
var ErrOutOfMemory = core.ErrOutOfMemory

// Config configures an Engine. The zero value gives a laptop-scaled replica
// of the paper's testbed: 8 simulated SSDs whose bandwidths follow the
// Kioxia CM7-R (11 GB/s read / 6.2 GB/s write) scaled down 100× to match
// this environment's single-core CPU budget, keeping the paper's
// CPU-to-I/O cycles-per-byte ratio (§4.4).
type Config struct {
	// Workers is the number of worker goroutines per query (default:
	// GOMAXPROCS).
	Workers int
	// MemoryBudget bounds operator materialization memory in bytes
	// (0 = unlimited; nothing ever partitions or spills). The budget is
	// engine-wide: a shared governor admits queries and hands each one a
	// grant carved from it — the full budget when the engine is idle, a
	// shrinking share under concurrency — so N concurrent queries never
	// overcommit memory N×.
	MemoryBudget int64
	// MemoryFloor is the smallest memory grant the governor admits a query
	// with (default MemoryBudget/8). Queries that cannot get a floor-sized
	// grant wait in a FIFO admission queue.
	MemoryFloor int64
	// AdmitTimeout bounds how long a query waits in the admission queue
	// before failing with a structured "admission queue timeout"
	// *QueryError (default 30s; negative = wait indefinitely). Context
	// cancellation is honored while queued regardless.
	AdmitTimeout time.Duration
	// Baseline is the engine variant to run as (default Adaptive).
	Baseline Baseline
	// Compression enables self-regulating compression for spilled data.
	Compression bool
	// TableDevices and SpillDevices size the two simulated NVMe arrays
	// (defaults: 8 and 8). The paper's §6.8 experiment varies the spill
	// array size.
	TableDevices int
	SpillDevices int
	// Device is the per-SSD performance profile (default: scaled CM7-R).
	Device DeviceSpec
	// CacheBytes sizes the table buffer cache (0 = no cache; scans are
	// always cold).
	CacheBytes int64
	// PageSize and Partitions cap Umami's fan-out: pages are at most
	// PageSize bytes and operators split into at most Partitions partitions
	// (defaults 64 KiB, 64). Under a memory budget each query derives what it
	// really uses from its grant, so that the pages its workers keep active
	// (workers × partitions × page size) fit inside it — about 1/16 of the
	// grant when both are left at 0, never more than half when pinned.
	PageSize   int
	Partitions int
	// SpillParity is the parity stripe width K: every K spill block writes
	// are joined by one XOR parity block on a distinct device, so spilled
	// data survives silent corruption and the loss of one device per stripe
	// (reconstruct-on-read). 0 writes no parity. Every spilled page carries a
	// checksummed frame either way, so corruption and misdirected reads are
	// always detected; parity is what repairs them.
	SpillParity int
	// Profile records per-operator execution spans for every query so
	// Result.Profile returns an EXPLAIN ANALYZE-style tree. Off by default;
	// the untraced hot path pays only one nil check per operator.
	Profile bool
}

// DefaultDevice is the default simulated SSD: the paper's Kioxia CM7-R
// scaled down 100×.
var DefaultDevice = nvmesim.KioxiaCM7.Scaled(0.01)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.TableDevices <= 0 {
		c.TableDevices = 8
	}
	if c.SpillDevices <= 0 {
		c.SpillDevices = 8
	}
	if c.Device == (DeviceSpec{}) {
		c.Device = DefaultDevice
	}
	if c.MemoryFloor <= 0 {
		c.MemoryFloor = c.MemoryBudget / 8
	}
	if c.AdmitTimeout == 0 {
		c.AdmitTimeout = 30 * time.Second
	}
	return c
}

// Engine is a Spilly instance: a catalog of tables plus the simulated NVMe
// arrays for table storage and spilling.
type Engine struct {
	cfg      Config
	tableArr *nvmesim.Array
	spillArr *nvmesim.Array
	cache    *colstore.Cache
	store    *colstore.Store
	faults   *metrics.FaultTracker

	// spillSched and tableSched are the shared prioritized I/O schedulers
	// for the two arrays. Every ring the engine's queries create binds to
	// one of them; ioKeys hands each query a unique fairness key.
	spillSched *iosched.Scheduler
	tableSched *iosched.Scheduler
	ioKeys     atomic.Uint64

	// Catalog. tmu guards tables and sf: registration and queries may run
	// concurrently (readers take the read lock, loaders the write lock).
	tmu    sync.RWMutex
	tables map[string]colstore.Table
	sf     float64

	// gov admits queries against the engine-wide memory budget; nil when
	// the engine runs without a budget.
	gov *pages.Governor

	// In-flight query registry for the observability endpoint.
	queryID atomic.Int64
	qmu     sync.Mutex
	active  map[int64]*activeQuery

	// totals is the engine's lifetime counter set: every executed query's
	// counters folded in as it ends, exported at /metrics.
	totals metrics.Counters
}

// Totals returns the engine's lifetime counters — every executed query's
// counters (see metrics.Counter) summed, or maxed for high-water marks.
func (e *Engine) Totals() metrics.Snapshot { return e.totals.Load() }

// IOSchedSnapshot is one shared I/O scheduler's state for observability:
// per-class dispatch counters plus per-device queue depths and backlogs.
type IOSchedSnapshot struct {
	Name    string // "spill" or "table"
	Stats   iosched.Stats
	Devices []iosched.DeviceStats
}

// IOSchedSnapshots returns the state of the engine's shared I/O schedulers.
func (e *Engine) IOSchedSnapshots() []IOSchedSnapshot {
	return []IOSchedSnapshot{
		{Name: "spill", Stats: e.spillSched.Stats(), Devices: e.spillSched.PerDevice()},
		{Name: "table", Stats: e.tableSched.Stats(), Devices: e.tableSched.PerDevice()},
	}
}

// activeQuery is one registry entry: enough to render live progress without
// touching the query's hot path (all reads go through atomics).
type activeQuery struct {
	id    int64
	label string
	start time.Time
	ctx   *exec.Ctx
	// concurrentAtStart records that another query was already in flight
	// when this one registered (approximate GC attribution, see
	// Stats.AllocApprox).
	concurrentAtStart bool
}

// Open creates an engine.
func Open(cfg Config) (*Engine, error) {
	c := cfg.withDefaults()
	e := &Engine{
		cfg:      c,
		tableArr: nvmesim.New(c.TableDevices, c.Device, nvmesim.RealClock{}),
		spillArr: nvmesim.New(c.SpillDevices, c.Device, nvmesim.RealClock{}),
		tables:   map[string]colstore.Table{},
		faults:   metrics.NewFaultTracker(),
		active:   map[int64]*activeQuery{},
	}
	if c.CacheBytes > 0 {
		e.cache = colstore.NewCache(c.CacheBytes)
	}
	e.store = colstore.NewStore(e.tableArr, e.cache)
	e.spillSched = iosched.New(e.spillArr, iosched.Config{})
	e.tableSched = iosched.New(e.tableArr, iosched.Config{})
	e.store.SetIOSched(e.tableSched)
	if c.MemoryBudget > 0 {
		e.gov = pages.NewGovernor(c.MemoryBudget, c.MemoryFloor)
	}
	return e, nil
}

// RegisterTable adds an in-memory table to the catalog, replacing any table
// of the same name. Queries already planned keep the snapshot they hold.
func (e *Engine) RegisterTable(t *colstore.MemTable) {
	e.tmu.Lock()
	e.tables[t.Name()] = t
	e.tmu.Unlock()
}

// StoreOnArray moves a registered in-memory table onto the simulated NVMe
// array (compressed column chunks striped across devices, §5.2).
func (e *Engine) StoreOnArray(name string) error {
	e.tmu.RLock()
	mt, ok := e.tables[name].(*colstore.MemTable)
	e.tmu.RUnlock()
	if !ok {
		return fmt.Errorf("spilly: table %q is not in memory", name)
	}
	dt, err := e.store.WriteTable(mt)
	if err != nil {
		return err
	}
	e.tmu.Lock()
	e.tables[name] = dt
	e.tmu.Unlock()
	return nil
}

// Table returns a catalog table.
func (e *Engine) Table(name string) (colstore.Table, error) {
	e.tmu.RLock()
	t, ok := e.tables[name]
	e.tmu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("spilly: unknown table %q", name)
	}
	return t, nil
}

// LoadTPCH generates and registers the TPC-H tables at the given scale
// factor; onArray stores them on the simulated NVMe array (external scans)
// instead of keeping them in memory.
func (e *Engine) LoadTPCH(sf float64, onArray bool) error {
	g := &tpch.Gen{SF: sf}
	tables := g.All()
	// In tpch.TableNames order, not map order: the order tables are written
	// in fixes every chunk's offset on the array, and a run has to be
	// repeatable.
	for _, name := range tpch.TableNames {
		e.RegisterTable(tables[name])
		if onArray {
			if err := e.StoreOnArray(name); err != nil {
				return err
			}
		}
	}
	e.tmu.Lock()
	e.sf = sf
	e.tmu.Unlock()
	return nil
}

// LoadTPCHTbl loads TPC-H tables from dbgen-format .tbl files (official
// dbgen output or cmd/tpchgen -out) instead of generating them. sf is the
// data's scale factor (some query parameters depend on it).
func (e *Engine) LoadTPCHTbl(dir string, sf float64, onArray bool) error {
	db, err := tpch.LoadTblDir(dir, sf)
	if err != nil {
		return err
	}
	for _, name := range tpch.TableNames { // a fixed order: see LoadTPCH
		t, loaded := db.Tables[name]
		if !loaded {
			continue
		}
		mt, ok := t.(*colstore.MemTable)
		if !ok {
			return fmt.Errorf("spilly: loaded table %q has unexpected type", name)
		}
		e.RegisterTable(mt)
		if onArray {
			if err := e.StoreOnArray(name); err != nil {
				return err
			}
		}
	}
	e.tmu.Lock()
	e.sf = sf
	e.tmu.Unlock()
	return nil
}

// TPCH returns the TPC-H catalog view used to build the 22 queries. The
// view holds a snapshot copy of the catalog so concurrent registration
// cannot race a running query's plan construction.
func (e *Engine) TPCH() *tpch.DB {
	e.tmu.RLock()
	tables := make(map[string]colstore.Table, len(e.tables))
	for name, t := range e.tables {
		tables[name] = t
	}
	db := &tpch.DB{SF: e.sf, Tables: tables}
	e.tmu.RUnlock()
	return db
}

// ClearCaches empties the table buffer cache. After ClearCaches the next run
// of any query is a true cold run: scans hit the table array (§6.1).
func (e *Engine) ClearCaches() {
	if e.cache != nil {
		e.cache.Clear()
	}
}

// BufferCacheStats returns a snapshot of the table buffer cache (zero
// when Config.CacheBytes is 0).
func (e *Engine) BufferCacheStats() colstore.CacheStats {
	if e.cache == nil {
		return colstore.CacheStats{}
	}
	return e.cache.Stats()
}

// SpillArray exposes the spill target array (harness instrumentation).
func (e *Engine) SpillArray() *nvmesim.Array { return e.spillArr }

// Faults exposes the engine's cumulative fault-path counters: retries,
// failovers, canceled queries, and per-device error counts.
func (e *Engine) Faults() *metrics.FaultTracker { return e.faults }

// TableArray exposes the table storage array.
func (e *Engine) TableArray() *nvmesim.Array { return e.tableArr }

// NewCtx builds a fresh per-query execution context, including the query's
// spill lease and its memory budget. The budget starts at the engine's whole
// MemoryBudget — what plan-time subqueries run under — and admission resizes
// it to the grant; operators derive their fan-out from it when they start.
func (e *Engine) NewCtx() *exec.Ctx {
	ctx := &exec.Ctx{
		Workers:    e.cfg.Workers,
		PageSize:   e.cfg.PageSize,
		Partitions: e.cfg.Partitions,
		QueryID:    e.ioKeys.Add(1),
		Stats:      &exec.Stats{},
	}
	spill := true
	switch e.cfg.Baseline {
	case NeverPartition:
		ctx.Mode = core.ModeNeverPartition
	case InMemoryOnly:
		ctx.Mode = core.ModeNeverPartition
		spill = false
	case AlwaysPartition:
		ctx.Mode = core.ModeAlwaysPartition
	case Grace:
		ctx.Mode = core.ModeAlwaysPartition
		ctx.ForceGrace, ctx.NoPreAgg = true, true
	case SpillAll:
		ctx.Mode = core.ModeSpillAll
	}
	if e.cfg.MemoryBudget > 0 {
		ctx.Budget = pages.NewBudget(e.cfg.MemoryBudget)
	}
	if spill {
		ctx.Spill = &core.SpillConfig{
			Array:    e.spillArr,
			Compress: e.cfg.Compression,
			Parity:   e.cfg.SpillParity,
			Sched:    e.spillSched,
			Lease:    e.spillArr.NewLease(),
			Query:    ctx.QueryID,
		}
	}
	if e.cfg.Profile {
		ctx.Trace = trace.New(ctx.Workers)
	}
	return ctx
}

// Stats summarizes one query execution. Every counter of the engine's
// counter table (internal/metrics) has a field here, filled by statsFrom; the
// remaining fields are derived rates and per-query context.
type Stats struct {
	Duration     time.Duration
	ScannedRows  int64
	ScannedBytes int64
	// TuplesStored counts tuples materialized by operators (join builds,
	// aggregation, sort, window); Partitioned reports whether any of them
	// enabled partitioning.
	TuplesStored   int64
	Partitioned    bool
	SpilledBytes   int64 // raw page bytes spilled
	WrittenBytes   int64 // post-compression bytes written to the array
	SpillReadBytes int64
	SpilledOps     int64
	// SpillRetries counts transient I/O errors recovered by retry;
	// SpillFailovers counts spill writes re-striped away from a dead
	// device. Both zero on a healthy array.
	SpillRetries   int64
	SpillFailovers int64
	// SpillStallTime is worker wall time spent stalled inside spill
	// readback (waiting for pages the scheduler had not yet prefetched);
	// PrefetchedPartitions counts spilled partitions whose readback was
	// already in flight when phase 2 reached them.
	SpillStallTime       time.Duration
	PrefetchedPartitions int64
	// ScanStallTime is worker wall time spent blocked inside table-scan
	// Next calls waiting on group reads the scan lookahead had not
	// finished — the scan-side analog of SpillStallTime.
	ScanStallTime time.Duration
	// ScanStalls counts how many times scan workers blocked waiting for a
	// group read; ScanStallTime/ScanStalls is the mean wait per scan block.
	// Scan reads stay prefetch class while a worker waits on them.
	ScanStalls int64
	// DemandReads counts spill-readback reads issued demand-class (their
	// partition's consumer had already opened it); DemandReadTime is the
	// sum of their per-request completion latencies. Where the stall
	// counters measure worker-side blocked wall time, these measure how
	// long each latency-critical read itself spent queued behind other
	// I/O — the quantity the shared I/O scheduler's demand-first dispatch
	// bounds (mean latency = DemandReadTime / DemandReads).
	DemandReads    int64
	DemandReadTime time.Duration
	// Spill integrity counters: pages whose block frame verified on readback
	// (every spilled page read back), blocks that failed verification, and —
	// with Config.SpillParity > 0 — blocks rebuilt from their parity stripe
	// and the parity bytes written alongside the spilled data (the
	// redundancy overhead).
	SpillPagesVerified   int64
	SpillChecksumErrors  int64
	SpillReconstructions int64
	SpillParityBytes     int64
	// RegLevelChanges counts scheme transitions made by the self-regulating
	// compression (§4.4); RegMaxLevel is the highest level any operator's
	// regulator reached on its unified scale.
	RegLevelChanges int64
	RegMaxLevel     int64
	// PeakMemory is the high-water mark of the query's materialization
	// memory budget — what the query really held at once, to set against
	// MemoryGrant.
	PeakMemory int64
	// TuplesPerSec is scanned tuples divided by execution time — the
	// paper's headline throughput metric (§6.1).
	TuplesPerSec float64
	// CyclesPerByte is the §4.4 cost metric over scanned bytes.
	CyclesPerByte float64
	// AdmissionWait is the time the query spent queued for a memory grant
	// before execution began (zero on an ungoverned or idle engine);
	// MemoryGrant is the memory grant it was admitted with (the full
	// budget when idle, a share under concurrency; 0 = unlimited).
	AdmissionWait time.Duration
	MemoryGrant   int64
	// AllocObjects and AllocBytes are the process-wide heap-allocation
	// deltas (runtime/metrics /gc/heap/allocs:objects and :bytes) across
	// the query's execution phase (plan construction excluded) — the
	// GC-pressure cost of running it. Approximate under concurrency: the
	// process-wide counters mix in every other query running at the same
	// time. AllocApprox reports whether any other query overlapped this
	// one's measurement window; engine-level totals (Engine.Totals) remain
	// exact sums of these deltas.
	AllocObjects int64
	AllocBytes   int64
	// GCPause is the total stop-the-world pause time incurred during the
	// query; NumGC counts the garbage collections that ran. Like
	// AllocObjects, both are process-wide and approximate under
	// concurrency (see AllocApprox).
	GCPause time.Duration
	NumGC   int64
	// AllocApprox is true when another query was in flight during any part
	// of this query's execution, making the per-query AllocObjects /
	// AllocBytes / GCPause / NumGC attributions approximate.
	AllocApprox bool
	// Schemes counts spilled pages per compression scheme name (§6.8).
	Schemes map[string]int64
}

// Result is a query result with its statistics.
type Result struct {
	Batch   *data.Batch
	Stats   Stats
	profile *Profile
}

// Table renders the result as an ASCII table (for examples and tools).
func (r *Result) Table() string { return FormatBatch(r.Batch, 50) }

// Profile is the per-operator execution profile of a query: a span tree
// with self/inclusive worker time and materialization counters per node.
type Profile = trace.Profile

// Profile returns the query's per-operator execution profile, or nil when
// the engine ran without Config.Profile (or the Ctx had no tracer).
func (r *Result) Profile() *Profile { return r.profile }

// FormatProfile renders a profile as an EXPLAIN ANALYZE-style tree.
func FormatProfile(p *Profile) string { return trace.FormatProfile(p) }

// Run executes a plan and collects its result.
func (e *Engine) Run(node exec.Node) (*Result, error) {
	ctx := e.NewCtx()
	return e.RunCtx(ctx, node)
}

// RunContext executes a plan under a context: cancellation or deadline
// expiry aborts the query promptly (blocking spill I/O observes the context
// within one poll interval) with all buffers returned to their pools, and
// the query returns a *QueryError wrapping context.Canceled or
// context.DeadlineExceeded.
func (e *Engine) RunContext(goCtx context.Context, node exec.Node) (*Result, error) {
	ctx := e.NewCtx()
	ctx.Context = goCtx
	return e.RunCtx(ctx, node)
}

// RunTPCHContext builds and runs TPC-H query q (1–22) under a context.
func (e *Engine) RunTPCHContext(goCtx context.Context, q int) (*Result, error) {
	ctx := e.NewCtx()
	ctx.Context = goCtx
	return e.runAdmitted(ctx, fmt.Sprintf("tpch-q%d", q), func() (exec.Node, error) {
		return tpch.BuildQuery(ctx, e.TPCH(), q)
	})
}

// registerQuery adds a query to the in-flight registry and returns the
// entry plus its deregistration func. The entry records whether another
// query was already in flight at registration — one half of the
// approximate-allocation-attribution check.
func (e *Engine) registerQuery(label string, ctx *exec.Ctx) (*activeQuery, func()) {
	q := &activeQuery{
		id:    e.queryID.Add(1),
		label: label,
		start: time.Now(),
		ctx:   ctx,
	}
	e.qmu.Lock()
	e.active[q.id] = q
	q.concurrentAtStart = len(e.active) > 1
	e.qmu.Unlock()
	return q, func() {
		e.qmu.Lock()
		delete(e.active, q.id)
		e.qmu.Unlock()
	}
}

// ActiveQueries returns the number of queries currently executing.
func (e *Engine) ActiveQueries() int {
	e.qmu.Lock()
	n := len(e.active)
	e.qmu.Unlock()
	return n
}

// GovernorStats returns a snapshot of the admission governor: granted
// bytes, active and queued queries, and cumulative admission totals. Zero
// when the engine runs without a memory budget.
func (e *Engine) GovernorStats() pages.GovernorStats {
	if e.gov == nil {
		return pages.GovernorStats{}
	}
	return e.gov.Stats()
}

// RunCtx executes a plan under a caller-provided context.
func (e *Engine) RunCtx(ctx *exec.Ctx, node exec.Node) (*Result, error) {
	return e.runAdmitted(ctx, "query", func() (exec.Node, error) { return node, nil })
}

// admitCtx waits for a memory grant when the engine is governed and resizes
// the context's budget to it. A nil grant with nil error means the engine is
// ungoverned.
func (e *Engine) admitCtx(ctx *exec.Ctx) (*pages.Grant, time.Duration, error) {
	if e.gov == nil {
		return nil, 0, nil
	}
	timeout := e.cfg.AdmitTimeout
	if timeout < 0 {
		timeout = 0 // negative config = wait indefinitely
	}
	grant, wait, err := e.gov.Admit(ctx.Context, timeout)
	if err != nil {
		qe := &QueryError{Op: "admit", Part: -1, Device: -1, Err: err}
		if errors.Is(err, pages.ErrAdmissionTimeout) {
			qe.Hint = "raise Config.AdmitTimeout or MemoryBudget, or lower concurrency"
		}
		return nil, wait, qe
	}
	ctx.Budget.Resize(grant.Bytes())
	return grant, wait, nil
}

// runAdmitted is the shared execution path: it waits for a memory grant,
// registers the query with the observability endpoint under label, builds
// and runs the plan, and folds the execution counters into engine-wide
// totals. Plan construction happens after admission because some TPC-H
// plans (Q11/Q15/Q22) execute scalar subqueries at build time — that work
// must run under the query's grant and spill lease too.
func (e *Engine) runAdmitted(ctx *exec.Ctx, label string, build func() (exec.Node, error)) (*Result, error) {
	e.faults.QueryStarted()
	grant, admitWait, err := e.admitCtx(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			e.faults.QueryCanceled()
		} else {
			e.faults.QueryFailed()
		}
		ctx.Close() // frees the query's (unused) spill lease
		return nil, err
	}
	defer grant.Release() // after ctx.Close: memory really is back by then
	q, deregister := e.registerQuery(label, ctx)
	defer deregister()
	defer ctx.Close() // return pooled batches, release budget, free the spill lease
	start := time.Now()
	node, err := build()
	// Sample after plan construction: AllocObjects tracks the execution
	// hot path the recycling work targets, not per-plan operator setup.
	heap0 := readHeap()
	var out *data.Batch
	if err == nil {
		out, err = exec.Collect(ctx, node)
	}
	dur := time.Since(start)
	n := ctx.Totals()
	for i, h := range readHeap() {
		n[heapCounters[i]] = h - heap0[i]
	}
	e.totals.Merge(&n)
	if err != nil {
		err = core.WrapQueryError("query", err)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			e.faults.QueryCanceled()
		} else {
			e.faults.QueryFailed()
		}
		var qe *QueryError
		if errors.As(err, &qe) && qe.Device >= 0 {
			e.faults.DeviceError(qe.Device, 1)
		}
		return nil, err
	}
	st := statsFrom(&n, dur)
	st.AdmissionWait = admitWait
	st.MemoryGrant = e.cfg.MemoryBudget
	if grant != nil {
		st.MemoryGrant = grant.Bytes()
	}
	// Approximate attribution if any other query overlapped us: one was
	// already running when we registered, or one registered after us (its
	// id is past ours) while we ran.
	st.AllocApprox = q.concurrentAtStart || e.queryID.Load() > q.id
	st.Schemes = ctx.Stats.Schemes.Load()
	e.faults.QueryCompleted()
	res := &Result{Batch: out, Stats: st}
	if ctx.Trace != nil {
		res.profile = ctx.Trace.Profile(dur)
		res.profile.Query = n
		res.profile.AllocApprox = st.AllocApprox
		res.profile.AdmissionWait = st.AdmissionWait
		res.profile.MemoryGrant = st.MemoryGrant
	}
	return res, nil
}

// statsFrom projects a query's counters onto the public Stats — the one
// hand-written field list downstream of the counter table, pinned to it by
// TestCounterTableMatchesStats — and derives the rates from dur.
func statsFrom(n *metrics.Snapshot, dur time.Duration) Stats {
	st := Stats{
		Duration:             dur,
		ScannedRows:          n[metrics.ScannedRows],
		ScannedBytes:         n[metrics.ScannedBytes],
		TuplesStored:         n[metrics.TuplesStored],
		Partitioned:          n[metrics.Partitioned] != 0,
		SpilledBytes:         n[metrics.SpilledBytes],
		WrittenBytes:         n[metrics.WrittenBytes],
		SpillReadBytes:       n[metrics.SpillReadBytes],
		SpilledOps:           n[metrics.SpilledOps],
		SpillRetries:         n[metrics.SpillRetries],
		SpillFailovers:       n[metrics.SpillFailovers],
		SpillStallTime:       time.Duration(n[metrics.SpillStallNanos]),
		PrefetchedPartitions: n[metrics.PrefetchedPartitions],
		ScanStallTime:        time.Duration(n[metrics.ScanStallNanos]),
		ScanStalls:           n[metrics.ScanStalls],
		DemandReads:          n[metrics.DemandReads],
		DemandReadTime:       time.Duration(n[metrics.DemandReadNanos]),
		SpillPagesVerified:   n[metrics.SpillPagesVerified],
		SpillChecksumErrors:  n[metrics.SpillChecksumErrors],
		SpillReconstructions: n[metrics.SpillReconstructions],
		SpillParityBytes:     n[metrics.SpillParityBytes],
		RegLevelChanges:      n[metrics.RegLevelChanges],
		RegMaxLevel:          n[metrics.RegMaxLevel],
		PeakMemory:           n[metrics.BudgetPeakBytes],
		AllocObjects:         n[metrics.AllocObjects],
		AllocBytes:           n[metrics.AllocBytes],
		GCPause:              time.Duration(n[metrics.GCPauseNanos]),
		NumGC:                n[metrics.GCCycles],
	}
	if dur > 0 {
		st.TuplesPerSec = float64(st.ScannedRows) / dur.Seconds()
	}
	st.CyclesPerByte = metrics.CyclesPerByte(dur, st.ScannedBytes)
	return st
}

// heapCounters are the counters readHeap samples, in its order.
var heapCounters = [4]metrics.Counter{metrics.AllocObjects, metrics.AllocBytes, metrics.GCCycles, metrics.GCPauseNanos}

// heapReader holds the buffers readHeap reads into; pooled, so the two
// samples a query takes allocate nothing.
type heapReader struct {
	samples [3]rtmetrics.Sample
	gc      debug.GCStats
}

var heapReaders = sync.Pool{New: func() any {
	return &heapReader{samples: [3]rtmetrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}}

// readHeap samples the process-wide counters behind heapCounters: objects and
// bytes allocated, collections run, and total pause time so far. Neither
// source stops the world.
func readHeap() (h [4]int64) {
	r := heapReaders.Get().(*heapReader)
	rtmetrics.Read(r.samples[:])
	debug.ReadGCStats(&r.gc)
	for i := range r.samples {
		h[i] = int64(r.samples[i].Value.Uint64())
	}
	h[3] = int64(r.gc.PauseTotal)
	heapReaders.Put(r)
	return h
}

// AggMicroPlan builds the paper's §6.3 spilling-aggregation
// microbenchmark over the loaded TPC-H data.
func (e *Engine) AggMicroPlan() exec.Node { return tpch.AggMicro(e.TPCH()) }

// JoinMicroPlan builds the paper's §6.7 spilling-join microbenchmark.
func (e *Engine) JoinMicroPlan() exec.Node { return tpch.JoinMicro(e.TPCH()) }

// RunTPCH builds and runs TPC-H query q (1–22).
func (e *Engine) RunTPCH(q int) (*Result, error) {
	ctx := e.NewCtx()
	return e.runAdmitted(ctx, fmt.Sprintf("tpch-q%d", q), func() (exec.Node, error) {
		return tpch.BuildQuery(ctx, e.TPCH(), q)
	})
}

// TraceQuery runs a plan like Run does — admitted, registered, counted —
// while sampling engine utilization at the given interval (Figure 8). The
// returned samples carry rates for keys
// "tuples" (scanned rows/s), "spill_write" and "spill_read" (bytes/s on
// the spill array), "table_read" (bytes/s on the table array), and
// "mem_bytes" (a memory-bandwidth proxy: all bytes touched/s).
func (e *Engine) TraceQuery(node exec.Node, interval time.Duration) (*Result, []metrics.Sample, error) {
	ctx := e.NewCtx()
	tracer := metrics.NewTracer(interval, func() map[string]float64 {
		sp := e.spillArr.Stats()
		tb := e.tableArr.Stats()
		rows := float64(ctx.Stats.Get(metrics.ScannedRows))
		scanned := float64(ctx.Stats.Get(metrics.ScannedBytes))
		return map[string]float64{
			"tuples":      rows,
			"spill_write": float64(sp.BytesWritten),
			"spill_read":  float64(sp.BytesRead),
			"table_read":  float64(tb.BytesRead),
			"mem_bytes":   scanned + float64(sp.BytesWritten) + float64(sp.BytesRead),
		}
	})
	tracer.Start()
	res, err := e.runAdmitted(ctx, "trace", func() (exec.Node, error) { return node, nil })
	samples := tracer.Stop()
	if err != nil {
		return nil, nil, err
	}
	return res, samples, nil
}

package metrics

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync/atomic"
)

// Counter names one engine counter. The definition table below is the only
// place a counter is declared: its combining rule, its unit, and what it is
// called on every surface (span and /queries JSON, /metrics, the profile
// tree). Everything downstream — core results and cursors, exec query totals,
// trace spans, the engine's lifetime totals, the exporters — holds counters
// as an array indexed by this enum instead of a hand-copied field list, and
// no per-query number travels beside it: the spilled pages per compression
// scheme are rows too.
//
// To add a counter: add the constant, add its row to defs, and report it
// from its producer (exec's Ctx.report for operator events). Give it a field
// in the public spilly.Stats too — TestCounterTableMatchesStats fails until
// every counter has one. A family of counters that differ in one label — the
// scheme rows, spilled pages per compression scheme — is one row per label
// value, consecutive in the table, sharing a Family and each with its own
// Labels; /metrics serves them as that family's samples.
type Counter int

const (
	ScannedRows Counter = iota
	ScannedBytes
	TuplesStored
	Partitioned
	SpilledBytes
	WrittenBytes
	SpillReadBytes
	SpilledOps
	SpillStallNanos
	PrefetchedPartitions
	ScanStallNanos
	ScanStalls
	DemandReads
	DemandReadNanos
	SpillRetries
	SpillFailovers
	SpillPagesVerified
	SpillChecksumErrors
	SpillReconstructions
	SpillParityBytes
	RegLevelChanges
	RegMaxLevel
	AllocObjects
	AllocBytes
	GCCycles
	GCPauseNanos
	BudgetPeakBytes
	// SpilledPages is the first of the NumSchemes scheme rows: SpilledPages
	// + level counts the pages spilled at that level of core's unified
	// compression scale (core.DefaultScale, raw included).
	SpilledPages

	NumCounters = SpilledPages + NumSchemes
)

// NumSchemes is the number of levels of core's unified compression scale.
const NumSchemes = 8

// Kind is how two values of a counter combine.
type Kind uint8

const (
	// Sum counters add: event counts, byte volumes, accumulated time.
	Sum Kind = iota
	// Max counters keep the largest value seen: high-water marks and flags.
	Max
)

// Unit is what a counter's value measures, which decides how each surface
// renders it.
type Unit uint8

const (
	// Count is a plain number.
	Count Unit = iota
	// Bytes is a byte volume (profile trees print it as KB/MB).
	Bytes
	// Nanos is a duration in nanoseconds: seconds on /metrics, a
	// time.Duration in the public Stats.
	Nanos
	// Flag is 0 or 1 (always Max-kind): a JSON bool, a bare word in the
	// profile tree.
	Flag
)

// Def is one counter's definition row.
type Def struct {
	Kind Kind
	Unit Unit
	// JSON is the key in span and /queries documents.
	JSON string
	// Family and Help are the Prometheus family name and help text.
	Family string
	Help   string
	// Label is the counter's tag on a profile-tree line, shown when the
	// counter is non-zero ("" = never shown there).
	Label string
	// Labels, when set, makes the row one sample of a labelled family: the
	// rows sharing its Family are consecutive and differ in Labels.Value.
	Labels LabelPair
}

// LabelPair is a labelled row's label, Name="Value" on /metrics.
type LabelPair struct{ Name, Value string }

// String renders the pair as a Prometheus label set, "" when unset.
func (l LabelPair) String() string {
	if l.Name == "" {
		return ""
	}
	return l.Name + "=" + strconv.Quote(l.Value)
}

// schemeRow is the row of the pages spilled with one compression scheme,
// named as the codec is (raw for uncompressed).
func schemeRow(scheme string) Def {
	return Def{JSON: "spilled_pages_" + strings.ReplaceAll(scheme, "-", "_"), Family: "spilly_query_spilled_pages_total",
		Help:  "Spilled pages by the compression scheme of the unified scale they were written with (raw = uncompressed).",
		Label: scheme, Labels: LabelPair{"scheme", scheme}}
}

var defs = [NumCounters]Def{
	ScannedRows: {JSON: "scanned_rows", Family: "spilly_query_scanned_rows_total",
		Help: "Table rows read by scans."},
	ScannedBytes: {Unit: Bytes, JSON: "scanned_bytes", Family: "spilly_query_scanned_bytes_total",
		Help: "Raw bytes of the rows read by scans (the cycles-per-byte denominator)."},
	TuplesStored: {JSON: "tuples_stored", Family: "spilly_query_tuples_stored_total",
		Help: "Tuples materialized by operators (join builds, aggregation, sort, window).", Label: "in"},
	Partitioned: {Kind: Max, Unit: Flag, JSON: "partitioned", Family: "spilly_query_partitioned",
		Help: "1 once any operator has enabled partitioning.", Label: "partitioned"},
	SpilledBytes: {Unit: Bytes, JSON: "spilled_bytes", Family: "spilly_query_spilled_bytes_total",
		Help: "Raw page bytes handed to the spill path.", Label: "spilled"},
	WrittenBytes: {Unit: Bytes, JSON: "written_bytes", Family: "spilly_query_written_bytes_total",
		Help: "Post-compression bytes written to the spill array.", Label: "written"},
	SpillReadBytes: {Unit: Bytes, JSON: "spill_read_bytes", Family: "spilly_query_spill_read_bytes_total",
		Help: "Bytes read back from the spill array.", Label: "spill-read"},
	SpilledOps: {JSON: "spilled_ops", Family: "spilly_query_spilled_ops_total",
		Help: "Operator materializations that spilled at least one partition."},
	SpillStallNanos: {Unit: Nanos, JSON: "spill_stall_ns", Family: "spilly_query_spill_stall_seconds",
		Help: "Worker time stalled waiting on spill readback during query execution.", Label: "stall"},
	PrefetchedPartitions: {JSON: "prefetched_partitions", Family: "spilly_query_prefetched_partitions_total",
		Help: "Spilled partitions whose readback was in flight before phase 2 reached them.", Label: "prefetched"},
	ScanStallNanos: {Unit: Nanos, JSON: "scan_stall_ns", Family: "spilly_query_scan_stall_seconds_total",
		Help: "Worker time blocked in table scans waiting on group reads.", Label: "scan-stall"},
	ScanStalls: {JSON: "scan_stalls", Family: "spilly_query_scan_stalls_total",
		Help: "Times a scan worker blocked waiting for a group read."},
	DemandReads: {JSON: "demand_reads", Family: "spilly_query_demand_reads_total",
		Help: "Spill-readback reads issued demand-class (their consumer was already waiting)."},
	DemandReadNanos: {Unit: Nanos, JSON: "demand_read_ns", Family: "spilly_query_demand_read_seconds_total",
		Help: "Summed completion latency of demand-class spill-readback reads."},
	SpillRetries: {JSON: "spill_retries", Family: "spilly_spill_retries_total",
		Help: "Transient spill I/O errors recovered by retry.", Label: "retries"},
	SpillFailovers: {JSON: "spill_failovers", Family: "spilly_spill_failovers_total",
		Help: "Spill writes re-striped away from a dead device.", Label: "failovers"},
	SpillPagesVerified: {JSON: "spill_pages_verified", Family: "spilly_spill_pages_verified_total",
		Help: "Spilled pages whose block frame's checksum verified on readback.", Label: "verified"},
	SpillChecksumErrors: {JSON: "spill_checksum_errors", Family: "spilly_spill_checksum_errors_total",
		Help: "Spilled blocks that failed checksum verification on readback.", Label: "csum-errors"},
	SpillReconstructions: {JSON: "spill_reconstructions", Family: "spilly_spill_reconstructions_total",
		Help: "Spilled blocks rebuilt from their XOR parity stripe.", Label: "reconstructed"},
	SpillParityBytes: {Unit: Bytes, JSON: "spill_parity_bytes", Family: "spilly_query_spill_parity_bytes_total",
		Help: "Parity bytes written alongside spilled data."},
	RegLevelChanges: {JSON: "reg_level_changes", Family: "spilly_query_reg_level_changes_total",
		Help: "Scheme transitions made by the self-regulating compression.", Label: "reg-changes"},
	RegMaxLevel: {Kind: Max, JSON: "reg_max_level", Family: "spilly_query_reg_max_level",
		Help: "Highest level the compression regulator reached on its unified scale, its warm-start level included.", Label: "reg-max-level"},
	AllocObjects: {JSON: "alloc_objects", Family: "spilly_query_alloc_objects_total",
		Help: "Heap objects allocated during query execution."},
	AllocBytes: {Unit: Bytes, JSON: "alloc_bytes", Family: "spilly_query_alloc_bytes_total",
		Help: "Heap bytes allocated during query execution."},
	GCCycles: {JSON: "gc_cycles", Family: "spilly_query_gc_cycles_total",
		Help: "Garbage collections that ran during query execution."},
	GCPauseNanos: {Unit: Nanos, JSON: "gc_pause_ns", Family: "spilly_query_gc_pause_seconds_total",
		Help: "Stop-the-world GC pause time incurred during query execution."},
	BudgetPeakBytes: {Kind: Max, Unit: Bytes, JSON: "budget_peak_bytes", Family: "spilly_query_budget_peak_bytes",
		Help: "High-water mark of a query's materialization memory budget."},
	SpilledPages + 0: schemeRow("raw"),
	SpilledPages + 1: schemeRow("lz4-a8"),
	SpilledPages + 2: schemeRow("lz4-a4"),
	SpilledPages + 3: schemeRow("lz4"),
	SpilledPages + 4: schemeRow("deflate-1"),
	SpilledPages + 5: schemeRow("deflate-3"),
	SpilledPages + 6: schemeRow("deflate-6"),
	SpilledPages + 7: schemeRow("deflate-9"),
}

// Def returns the counter's definition row.
func (k Counter) Def() *Def { return &defs[k] }

// Counters is a live set of counters, safe for concurrent use. The zero
// value is ready.
type Counters [NumCounters]atomic.Int64

// Get returns one counter's current value.
func (c *Counters) Get(k Counter) int64 { return c[k].Load() }

// Merge folds a snapshot in, each counter by its kind: Sum counters are
// added, Max counters raised to the larger value.
func (c *Counters) Merge(s *Snapshot) {
	for k, v := range s {
		if v == 0 {
			continue
		}
		if defs[k].Kind == Sum {
			c[k].Add(v)
			continue
		}
		for cur := c[k].Load(); v > cur && !c[k].CompareAndSwap(cur, v); {
			cur = c[k].Load()
		}
	}
}

// Load copies the current values.
func (c *Counters) Load() Snapshot {
	var s Snapshot
	for k := range c {
		s[k] = c[k].Load()
	}
	return s
}

// Snapshot is a plain copy of a set of counters: what core results and
// cursors hand to their operator, and what every exporter renders.
type Snapshot [NumCounters]int64

// Merge folds o in, each counter by its kind.
func (s *Snapshot) Merge(o *Snapshot) {
	for k, v := range o {
		if defs[k].Kind == Max {
			s[k] = max(s[k], v)
		} else {
			s[k] += v
		}
	}
}

// MarshalWith encodes header — a struct with at least one member — as a JSON
// object and adds the counters to it: each becomes a member under its table
// key, in table order, flags as booleans. omitZero leaves zero counters out.
func (s *Snapshot) MarshalWith(header any, omitZero bool) ([]byte, error) {
	dst, err := json.Marshal(header)
	if err != nil {
		return nil, err
	}
	dst = dst[:len(dst)-1] // reopen the object
	for k, v := range s {
		if v == 0 && omitZero {
			continue
		}
		dst = append(dst, ',', '"')
		dst = append(dst, defs[k].JSON...)
		dst = append(dst, '"', ':')
		if defs[k].Unit == Flag {
			dst = strconv.AppendBool(dst, v != 0)
		} else {
			dst = strconv.AppendInt(dst, v, 10)
		}
	}
	return append(dst, '}'), nil
}

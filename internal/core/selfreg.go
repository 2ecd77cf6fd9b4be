package core

import (
	"sync/atomic"
	"time"

	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/uring"
)

// DefaultScale is the unified compression scale (paper §4.4 "A unified
// scale"). The paper's Figure 3 experiment rules out Snappy (off the pareto
// frontier) and BZ2 (too expensive) and merges the surviving LZ4 and ZSTD
// settings into one ordered scale: Uncompressed < LZ4 < ZSTD. Our measured
// trade-off curve (see internal/codec benchmarks and the fig3 experiment)
// yields the analogous ordering below: cost increases and compressed size
// decreases monotonically along the scale.
var DefaultScale = []codec.ID{
	codec.None,
	codec.LZ4Fastest,
	codec.LZ4Fast,
	codec.LZ4Default,
	codec.Deflate1,
	codec.Deflate3,
	codec.Deflate6,
	codec.Deflate9,
}

// regulator hysteresis: the cost ratio must leave this band around 1.0
// before the scheme changes, preventing oscillation at equilibrium.
const (
	regUpThreshold   = 1.15 // I/O cost > 1.15 × CPU cost: compress harder
	regDownThreshold = 0.85 // I/O cost < 0.85 × CPU cost: compress less
)

// Regulator implements self-regulating compression (paper §4.4, Listing 3).
//
// It tracks three costs in a common currency, nanoseconds per byte (the
// paper uses cycles per byte; ns at nominal frequency is the same metric up
// to a constant):
//
//   - operator cost: time the operator spends producing each page
//     (A in Figure 4), reported by the Umami buffer between allocations;
//   - compression cost: measured around each CompressBlock call, which
//     compresses a whole staging block of raw pages at once;
//   - I/O cost: completion latency divided by the number of simultaneous
//     requests (B in Figure 4 — the paper encodes request start times in
//     io_uring user-data fields; our uring layer timestamps completions).
//
// After a run of N pages — counted in pages, whatever the blocks they were
// compressed in — it compares CPU cost (operator + compression, per
// source byte) with effective I/O cost (per source byte, i.e. scaled by the
// achieved compression ratio). If I/O cost dominates, it steps up the
// unified scale; if CPU cost dominates, it steps down. One Regulator per
// worker thread; not safe for concurrent use.
//
// The paper's regulator lives as long as its worker thread, so a new
// operator starts where the thread's last spill settled. Here a Regulator
// lives as long as one operator's per-worker Buffer; a RegulatorSeed carries
// the settled level from one Buffer to the next across the engine's operators
// and queries, so a spill does not begin raw on an array that the previous
// spill found I/O-bound.
type Regulator struct {
	level int // position on DefaultScale
	runN  int
	// measured is set once a run closes with completed I/O observed: only
	// then does the level reflect this spill's costs rather than its start.
	measured bool

	// Accumulators for the current run.
	pagesInRun int
	opNs       float64
	opBytes    float64
	compNs     float64
	rawBytes   float64
	outBytes   float64
	ioNs       float64
	ioBytes    float64

	// Lifetime statistics.
	levelChanges int
	maxLevel     int
	scratch      []byte
}

// regulatorRun is the spill writer's regulator run length in pages. Short
// runs adapt within the few hundred pages one operator's worker spills at
// laptop scale; the paper's 2x-queue-depth default assumes millions of
// spilled pages per thread.
const regulatorRun = 8

// NewRegulator returns a regulator over DefaultScale starting at level 0
// (uncompressed): the cold start of a thread that has not spilled yet. A
// Buffer whose SpillConfig carries a RegulatorSeed starts at the seed's level
// instead. runN is the number of pages per measurement run (<= 0 selects
// regulatorRun).
func NewRegulator(runN int) *Regulator {
	if runN <= 0 {
		runN = regulatorRun
	}
	return &Regulator{runN: runN}
}

// RegulatorSeed is the level on DefaultScale the most recent measured spill
// settled on, shared by every Buffer of one engine. The zero value is a cold
// start at level 0; a nil seed is a cold start that records nothing. Safe
// for concurrent use.
type RegulatorSeed struct{ level atomic.Int32 }

// Level returns the seeded start level (0 for a nil seed).
func (s *RegulatorSeed) Level() int {
	if s == nil {
		return 0
	}
	return int(s.level.Load())
}

// newSeededRegulator returns a regulator starting at seed's level, which
// counts as reached.
func newSeededRegulator(runN int, seed *RegulatorSeed) *Regulator {
	r := NewRegulator(runN)
	r.level = seed.Level()
	r.maxLevel = r.level
	return r
}

// settle writes r's level back to seed if r measured at least one run with
// completed I/O; a regulator that never did (an operator that spilled too
// little, or not at all) would only write back the level it started from,
// possibly overwriting a fresher one.
func (s *RegulatorSeed) settle(r *Regulator) {
	if s != nil && r.measured {
		s.level.Store(int32(r.level))
	}
}

// Scheme returns the currently selected codec ID.
func (r *Regulator) Scheme() codec.ID { return DefaultScale[r.level] }

// Level returns the current position on the unified scale.
func (r *Regulator) Level() int { return r.level }

// ObserveOperator records that the operator spent d producing n bytes of
// tuple data (one page's worth). Called by the Umami buffer at page
// allocation, where the adaptivity cost amortizes over the page (§4.2).
func (r *Regulator) ObserveOperator(d time.Duration, n int) {
	r.opNs += float64(d)
	r.opBytes += float64(n)
}

// ObserveIO records a completed spill write. inflight is the number of
// simultaneous requests around completion time; dividing the measured
// latency by it approximates each request's share of device occupancy.
func (r *Regulator) ObserveIO(c uring.Completion, inflight int) {
	if c.Err != nil || c.N == 0 {
		return
	}
	if inflight < 1 {
		inflight = 1
	}
	r.ioNs += float64(c.Latency) / float64(inflight)
	r.ioBytes += float64(c.N)
}

// CompressBlock compresses src, a staging block of n sealed pages, with the
// current scheme in one codec call, measuring cost, and returns the encoded
// bytes plus the level on DefaultScale they were encoded at. For the
// Uncompressed scheme it returns src unchanged. The run advances by n pages.
// The returned slice is only valid until the next CompressBlock call.
func (r *Regulator) CompressBlock(src []byte, n int) ([]byte, int) {
	level := r.level
	id := DefaultScale[level]
	r.pagesInRun += n
	r.rawBytes += float64(len(src))
	var out []byte
	if id == codec.None {
		r.outBytes += float64(len(src))
		out = src
	} else {
		c := codec.ByID(id)
		start := time.Now()
		r.scratch = c.Compress(r.scratch[:0], src)
		r.compNs += float64(time.Since(start))
		r.outBytes += float64(len(r.scratch))
		out = r.scratch
	}
	if r.pagesInRun >= r.runN {
		r.adjust()
	}
	return out, level
}

// adjust is the regulation step from Listing 3: compare average CPU cost
// with average effective I/O cost over the finished run and move along the
// unified scale.
func (r *Regulator) adjust() {
	defer r.resetRun()
	if r.rawBytes == 0 {
		return
	}
	// CPU cost per byte: operator time per materialized byte plus
	// compression time per spilled byte.
	cpuCost := r.compNs / r.rawBytes
	if r.opBytes > 0 {
		cpuCost += r.opNs / r.opBytes
	}
	if r.ioBytes == 0 {
		// No completed I/O observed this run: spills are bursty and the
		// writes are still in flight. Hold the current setting; the next
		// run's completions will tell us which way to move.
		return
	}
	r.measured = true
	ratio := r.outBytes / r.rawBytes           // compressed fraction
	ioCostPerRaw := r.ioNs / r.ioBytes * ratio // ns per *source* byte at current ratio
	switch {
	case ioCostPerRaw > cpuCost*regUpThreshold && r.level < len(DefaultScale)-1:
		r.level++
		r.levelChanges++
		if r.level > r.maxLevel {
			r.maxLevel = r.level
		}
	case ioCostPerRaw < cpuCost*regDownThreshold && r.level > 0:
		r.level--
		r.levelChanges++
	}
}

func (r *Regulator) resetRun() {
	r.pagesInRun = 0
	r.opNs, r.opBytes, r.compNs = 0, 0, 0
	r.rawBytes, r.outBytes = 0, 0
	r.ioNs, r.ioBytes = 0, 0
}

// LevelChanges returns how often the regulator switched schemes.
func (r *Regulator) LevelChanges() int { return r.levelChanges }

// MaxLevel returns the highest position on the unified scale the regulator
// reached over its lifetime, its start level included.
func (r *Regulator) MaxLevel() int { return r.maxLevel }

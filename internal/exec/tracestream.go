package exec

import (
	"time"

	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/trace"
)

// spanAcc is one worker's local span accumulator. Workers batch their busy
// time and row counts here and merge into the span's shared atomics every
// spanFlushRows rows, keeping the traced steady state free of cross-core
// contention. Padded so adjacent workers' accumulators do not share a cache
// line (same layout rationale as statsAcc in scan.go).
type spanAcc struct {
	busyNs  int64
	rows    int64
	batches int64
	_       [104]byte
}

// spanFlushRows is the per-worker merge threshold (32k rows ≈ 32 batches).
const spanFlushRows = 1 << 15

func (a *spanAcc) flush(sp *trace.Span) {
	if a.busyNs == 0 && a.rows == 0 && a.batches == 0 {
		return
	}
	sp.AddBusy(time.Duration(a.busyNs))
	sp.AddRows(a.rows, a.batches)
	a.busyNs, a.rows, a.batches = 0, 0, 0
}

// nestSlot is one worker's stream-nesting counter: the full elapsed time of
// traced child streams pulled within the current enclosing Next call.
// Padded against false sharing like spanAcc.
type nestSlot struct {
	ns int64
	_  [120]byte
}

// traceStream wraps s so that every Next call charges its exclusive elapsed
// time (total minus nested traced child streams, via the per-worker nesting
// counter) and its row output to sp. Returns s unchanged when tracing is
// off, so the untraced fast path adds no indirection.
func (c *Ctx) traceStream(s *Stream, sp *trace.Span) *Stream {
	if sp == nil {
		return s
	}
	if c.traceNest == nil {
		// Allocated once; operator Run recursion is single-goroutine.
		c.traceNest = make([]nestSlot, c.workers())
	}
	accs := make([]spanAcc, c.workers())
	return &Stream{
		schema: s.schema,
		next: func(w int, b *data.Batch) (int, error) {
			a := &accs[w]
			nest := &c.traceNest[w].ns
			saved := *nest
			*nest = 0
			start := time.Now()
			n, err := s.next(w, b)
			el := int64(time.Since(start))
			if self := el - *nest; self > 0 {
				a.busyNs += self
			}
			*nest = saved + el
			if n > 0 {
				a.rows += int64(n)
				a.batches++
			}
			if n == 0 || err != nil || a.rows >= spanFlushRows {
				a.flush(sp)
			}
			return n, err
		},
		abandon: func(w int) {
			accs[w].flush(sp)
			s.Abandon(w)
		},
	}
}

// phaseClock marks the start of a blocking phase: the wall time and the
// tracer's total-charged watermark, so the phase can charge workers × wall
// minus whatever descendants charged meanwhile.
type phaseClock struct {
	start    time.Time
	charged0 time.Duration
}

// phaseStart opens a blocking-phase measurement window.
func (c *Ctx) phaseStart() phaseClock {
	return phaseClock{start: time.Now(), charged0: c.Trace.Charged()}
}

// spanPhase charges a blocking phase that occupied all workers since pc as
// workers × wall, minus the busy time descendant spans charged during the
// window (their stream pulls and nested build phases), keeping every span's
// busy time exclusive.
func (c *Ctx) spanPhase(sp *trace.Span, pc phaseClock) {
	if sp == nil {
		return
	}
	d := time.Duration(c.workers())*time.Since(pc.start) - (c.Trace.Charged() - pc.charged0)
	if d > 0 {
		sp.AddBusy(d)
	}
}

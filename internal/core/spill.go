package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/uring"
)

// SpilledSlot locates one spilled page: the staging block it was written in
// and its raw extent inside that block once decoded. The staging block is the
// unit of compression and framing: its raw pages are compressed by one codec
// call and written inside one checksummed frame, so every slot of a block
// carries the block's Scheme and Seq. The paper serializes [offset, size,
// scheme] slot directories into the staging areas themselves (§5.3); since
// spilled data is ephemeral — it never outlives the query — this
// reproduction keeps the directory in memory alongside the paper's in-memory
// spilledPageLocations list, which is equivalent and avoids re-parsing.
type SpilledSlot struct {
	Loc    nvmesim.Loc // staging block location on the array
	Off    uint32      // offset of the sealed page within the decoded block
	Len    uint32      // length of the sealed page
	Scheme codec.ID    // codec the block was compressed with, None = raw pages
	// Seq is the block's integrity sequence number, unique in the process
	// (frameSeq). The block on the array is one pages.FrameSize header
	// followed by the encoded block, and readback verifies the frame before
	// decoding.
	Seq uint32
}

// frameSeq issues every spilled block's integrity sequence number. One
// process-wide counter, not one per operator: two operators — of one query
// or of two — never frame different blocks with the same identity, so a
// misdirected read between them cannot verify.
var frameSeq atomic.Uint32

// stagingArea accumulates the raw sealed pages destined for one partition
// until they reach the flush threshold. The block is then compressed as one
// unit and written in one frame: small pages compress as well as the paper's
// 64 KiB ones, and every write is one block (paper §5.3, Figure 4).
type stagingArea struct {
	buf   []byte
	slots []SpilledSlot // Loc, Scheme and Seq filled in at flush time
}

// inflightWrite tracks one write request from queueing until its buffer can
// be reclaimed, carrying everything recovery needs: the staging buffer on the
// wire (rewritten by retries, recycled at release) and the slot-directory
// range whose Loc must be re-pointed when a retry lands on a different
// location.
type inflightWrite struct {
	buf      []byte // staging buffer being written; valid until release
	part     int
	slotFrom int // w.slots[part][slotFrom:slotTo] reference this write's Loc
	slotTo   int
	attempts int // transient-failure retries so far
	// Parity bookkeeping: when the write belongs to a stripe group, a
	// failover relocation must re-point the group's directory too.
	// stripeIdx is the member index, or -1 for the group's parity block.
	stripe    *StripeGroup
	stripeIdx int
}

// Write-retry policy: transient device errors are retried with capped
// exponential backoff; a permanent device failure triggers failover (the
// ring re-stripes onto surviving devices) without consuming the retry
// budget.
const (
	maxWriteAttempts = 4
	retryBackoffBase = 50 * time.Microsecond
	retryBackoffMax  = 2 * time.Millisecond
)

// spillMaxAhead bounds one writer's in-flight write requests; past it the
// writer blocks on a completion before queueing more (Listing 2).
const spillMaxAhead = 32

// retryBackoff returns the backoff before retry number attempt (1-based).
func retryBackoff(attempt int) time.Duration {
	d := retryBackoffBase << uint(attempt-1)
	if d > retryBackoffMax {
		d = retryBackoffMax
	}
	return d
}

// spillWriter performs asynchronous, optionally compressed page spilling
// for one worker thread (paper Listing 2). It owns the thread's I/O ring.
// Every page leaves through a staging block, compressed and framed as one
// unit.
//
// Fault handling: completions with transient errors are retried (same data,
// fresh allocation — possibly on another device) with capped exponential
// backoff; permanent device failures fail over to the surviving devices;
// fatal errors (retry budget exhausted, no writable device left) record a
// structured QueryError and switch the writer into fast-fail mode, where
// further pages are recycled instead of written. Buffers are returned to
// their pools on every path, including cancellation.
type spillWriter struct {
	ring    *uring.Ring
	clock   nvmesim.Clock
	ctx     context.Context // nil = never canceled
	reg     *Regulator      // nil: spill raw pages without the compression path
	pool    *pages.Pool
	parts   int
	flushAt int // staging flush threshold in raw page bytes (>= one device block)

	staging []*stagingArea // per partition, lazily allocated

	inflight map[uint64]*inflightWrite
	nextUD   uint64

	slots [][]SpilledSlot // per partition

	// Parity state (SpillConfig.Parity > 0): every `parity` staging-block
	// writes form a stripe group closed by an XOR parity block write.
	parity    int            // stripe width K; 0 = no parity
	curStripe *StripeGroup   // open group collecting members
	parityAcc []byte         // XOR accumulator over the open group's blocks
	stripes   []*StripeGroup // all groups this writer produced

	spilledPages int64
	// counts is the writer's telemetry, merged into the Result at Finish:
	// raw bytes spilled, bytes handed to the device (post compression),
	// parity bytes (integrity overhead), transient write errors recovered
	// by retrying, and writes re-striped onto a different device.
	counts   metrics.Snapshot
	firstErr error
	scratch  []uring.Completion
}

func newSpillWriter(ctx context.Context, ring *uring.Ring, reg *Regulator, pool *pages.Pool, parts, parity int) *spillWriter {
	// A staging block holds >= 64 KiB of raw pages regardless of the page
	// size, the paper's page size and so its compression unit (§5.3, §4.4).
	flushAt := max(pool.PageSize(), 64<<10)
	w := &spillWriter{
		ring:     ring,
		clock:    ring.Array().Clock(),
		ctx:      ctx,
		reg:      reg,
		pool:     pool,
		parts:    parts,
		flushAt:  flushAt,
		parity:   parity,
		staging:  make([]*stagingArea, parts),
		inflight: make(map[uint64]*inflightWrite),
		slots:    make([][]SpilledSlot, parts),
	}
	if ctx != nil {
		ring.SetCancel(func() bool { return ctx.Err() != nil })
	}
	return w
}

// newRun opens one more page sequence past the hash partitions — a sorted
// run — with its own staging area and slot list, and returns its index. The
// run's pages carry the index as their partition, so their frames verify
// against it on readback.
func (w *spillWriter) newRun() int {
	w.staging = append(w.staging, nil)
	w.slots = append(w.slots, nil)
	w.parts++
	return w.parts - 1
}

// canceled reports whether the query's context has been canceled.
func (w *spillWriter) canceled() bool {
	return w.ctx != nil && w.ctx.Err() != nil
}

// spillPage queues page p (belonging to partition p.Part) for writing: its
// sealed bytes — header, tuples and slots, not the gap between them — are
// appended to the partition's staging area and the page itself is
// immediately recycled. Once the staging area holds flushAt raw
// bytes it is compressed and written as one block (§5.3). After a fatal
// spill error the page is recycled without I/O — the query is failing; what
// matters is that no buffer leaks.
func (w *spillWriter) spillPage(p *pages.Page) {
	part := p.Part
	if part < 0 || part >= w.parts {
		panic(fmt.Sprintf("core: spilling page of invalid partition %d", part))
	}
	if w.firstErr != nil || w.canceled() {
		w.pool.Put(p)
		return
	}
	st := w.staging[part]
	if st == nil {
		st = &stagingArea{buf: w.getStagingBuf()}
		w.staging[part] = st
	}
	off := len(st.buf)
	st.buf = p.AppendSealed(st.buf)
	n := len(st.buf) - off
	w.spilledPages++
	w.counts[metrics.SpilledBytes] += int64(n)
	st.slots = append(st.slots, SpilledSlot{Off: uint32(off), Len: uint32(n)})
	w.pool.Put(p)
	if len(st.buf) >= w.flushAt {
		w.flushStaging(part)
	}
	w.pump()
}

// flushStaging writes out partition part's staging area, if any: one
// regulator call compresses the whole block, and the result goes to the
// array inside one frame with one sequence number.
func (w *spillWriter) flushStaging(part int) {
	st := w.staging[part]
	if st == nil {
		return
	}
	w.staging[part] = nil
	if w.firstErr != nil || w.canceled() {
		w.putStagingBuf(st.buf)
		return
	}
	enc, scheme := st.buf, codec.None
	if w.reg != nil {
		enc, scheme = w.reg.CompressBlock(st.buf, len(st.slots))
	}
	seq := frameSeq.Add(1)
	buf := pages.AppendFrame(w.getStagingBuf(), part, seq, enc)
	w.putStagingBuf(st.buf)
	ud := w.newUD()
	loc, err := w.ring.QueueWrite(buf, ud)
	if err != nil {
		w.fail(err)
		w.putStagingBuf(buf)
		return
	}
	slotFrom := len(w.slots[part])
	for _, s := range st.slots {
		s.Loc, s.Scheme, s.Seq = loc, scheme, seq
		w.slots[part] = append(w.slots[part], s)
	}
	rec := &inflightWrite{buf: buf, part: part, slotFrom: slotFrom, slotTo: len(w.slots[part]), stripeIdx: -1}
	if w.parity > 0 {
		w.addStripeMember(rec, loc, buf)
	}
	w.inflight[ud] = rec
	w.counts[metrics.WrittenBytes] += int64(len(buf))
}

// addStripeMember folds a just-queued staging block into the open stripe
// group, closing the group with a parity write once it holds `parity`
// members. Consecutive QueueWrites round-robin across live devices, so the
// group's members and parity land on distinct devices whenever the array
// has at least parity+1 of them.
func (w *spillWriter) addStripeMember(rec *inflightWrite, loc nvmesim.Loc, data []byte) {
	if w.curStripe == nil {
		w.curStripe = &StripeGroup{Data: make([]nvmesim.Loc, 0, w.parity)}
		w.parityAcc = w.getStagingBuf()
	}
	g := w.curStripe
	rec.stripe = g
	rec.stripeIdx = len(g.Data)
	g.Data = append(g.Data, loc)
	if len(data) > len(w.parityAcc) {
		w.parityAcc = append(w.parityAcc, make([]byte, len(data)-len(w.parityAcc))...)
	}
	xorInto(w.parityAcc, data)
	if len(g.Data) >= w.parity {
		w.sealStripe()
	}
}

// sealStripe writes the open stripe group's parity block and records the
// group in the writer's stripe directory. Called when the group is full and
// at finish() for a trailing partial group.
func (w *spillWriter) sealStripe() {
	g, acc := w.curStripe, w.parityAcc
	w.curStripe, w.parityAcc = nil, nil
	if g == nil || len(g.Data) == 0 {
		if acc != nil {
			w.putStagingBuf(acc)
		}
		return
	}
	w.stripes = append(w.stripes, g)
	if w.firstErr != nil || w.canceled() {
		w.putStagingBuf(acc)
		return
	}
	ud := w.newUD()
	loc, err := w.ring.QueueWrite(acc, ud)
	if err != nil {
		// No writable device for the parity block: the group simply has no
		// parity (Parity stays 0). Data writes already queued are intact,
		// so this alone does not fail the query — but with every device
		// dead or full those writes are failing too.
		w.putStagingBuf(acc)
		return
	}
	g.Parity = loc
	w.inflight[ud] = &inflightWrite{buf: acc, part: -1, stripe: g, stripeIdx: -1}
	w.counts[metrics.SpillParityBytes] += int64(len(acc))
}

// pump submits queued requests and reaps completions, blocking only when
// too many writes are in flight (bounding memory, per Listing 2).
func (w *spillWriter) pump() {
	w.ring.Submit()
	w.drain(len(w.inflight) >= spillMaxAhead)
}

// drain reaps completions; if block is true it waits for at least one.
// Failed completions are retried or failed over in place; a canceled
// context aborts and reclaims every in-flight buffer.
func (w *spillWriter) drain(block bool) {
	if w.canceled() {
		w.abort(w.ctx.Err())
		return
	}
	if w.ring.Outstanding() == 0 {
		return
	}
	w.scratch = w.ring.Poll(w.scratch[:0], block)
	if w.canceled() {
		w.abort(w.ctx.Err())
		return
	}
	for _, c := range w.scratch {
		rec, ok := w.inflight[c.UserData]
		if !ok {
			continue
		}
		if w.reg != nil && c.Err == nil {
			// Estimate the parallelism the request's latency was shared
			// across as the mean of submit-time and reap-time depth.
			w.reg.ObserveIO(c, (c.DepthAtSubmit+w.ring.Outstanding()+1)/2)
		}
		delete(w.inflight, c.UserData)
		if c.Err != nil {
			w.recoverWrite(c, rec)
			continue
		}
		w.release(rec)
	}
}

// recoverWrite handles one failed write completion: retry transient errors
// with backoff, fail over from dead devices, and fail the query (releasing
// the buffer) when recovery is impossible.
func (w *spillWriter) recoverWrite(c uring.Completion, rec *inflightWrite) {
	transient := nvmesim.IsTransient(c.Err)
	dead := nvmesim.IsDeviceDead(c.Err)
	if dead {
		// Permanent failure: re-stripe onto the survivors. This is
		// failover, not a retry — it does not consume the retry budget.
		w.requeue(c, rec)
		return
	}
	if transient && rec.attempts+1 < maxWriteAttempts {
		rec.attempts++
		w.counts[metrics.SpillRetries]++
		w.clock.Sleep(retryBackoff(rec.attempts))
		w.requeue(c, rec)
		return
	}
	w.failWrite(c, rec, c.Err)
}

// requeue re-submits rec's data through the ring (which skips dead devices)
// and re-points the slot directory at the new location.
func (w *spillWriter) requeue(c uring.Completion, rec *inflightWrite) {
	ud := w.newUD()
	loc, err := w.ring.QueueWrite(rec.buf, ud)
	if err != nil {
		// No writable device left (all dead or full): fatal.
		w.failWrite(c, rec, err)
		return
	}
	if loc.Device() != c.Loc.Device() {
		w.counts[metrics.SpillFailovers]++
	}
	for i := rec.slotFrom; i < rec.slotTo; i++ {
		w.slots[rec.part][i].Loc = loc
	}
	// Keep the stripe directory pointing at the data's final home.
	if g := rec.stripe; g != nil {
		if rec.stripeIdx >= 0 {
			g.Data[rec.stripeIdx] = loc
		} else {
			g.Parity = loc
		}
	}
	w.inflight[ud] = rec
}

// failWrite records a fatal, structured spill failure and reclaims the
// write's buffer. A failed parity write degrades instead: the group loses
// its redundancy (Parity = 0) but the data blocks are unaffected, so the
// query keeps running.
func (w *spillWriter) failWrite(c uring.Completion, rec *inflightWrite, err error) {
	if g := rec.stripe; g != nil && rec.stripeIdx < 0 {
		g.Parity = 0
		w.counts[metrics.SpillParityBytes] -= int64(len(rec.buf))
		w.release(rec)
		return
	}
	if w.firstErr == nil {
		qe := &QueryError{Op: "spill", Part: rec.part, Device: c.Loc.Device(), Err: err}
		var de *nvmesim.DeviceError
		if errors.As(err, &de) {
			qe.Device = de.Device
		}
		if errors.Is(err, nvmesim.ErrDeviceFull) {
			qe.Hint = HintDeviceFull
		}
		w.firstErr = qe
	}
	w.release(rec)
}

// release returns a completed (or abandoned) write's staging buffer.
func (w *spillWriter) release(rec *inflightWrite) { w.putStagingBuf(rec.buf) }

// abort reclaims every buffer the writer still tracks and records cause as
// the writer's error. The simulated array copies data at submission, so
// in-flight buffers are safe to reuse immediately; on real hardware this
// would first quiesce the DMA engine (io_uring cancel + wait).
func (w *spillWriter) abort(cause error) {
	// Writes the shared dispatcher is still holding deferred reference the
	// staging buffers released below — cancel them before recycling.
	w.ring.CancelDeferred()
	for ud, rec := range w.inflight {
		delete(w.inflight, ud)
		w.release(rec)
	}
	for part, st := range w.staging {
		if st != nil {
			w.putStagingBuf(st.buf)
			w.staging[part] = nil
		}
	}
	if w.parityAcc != nil {
		w.putStagingBuf(w.parityAcc)
		w.parityAcc = nil
		w.curStripe = nil
	}
	if cause != nil {
		w.fail(cause)
	}
}

// finish flushes all staging areas and drains every outstanding write —
// including retries queued during the drain — returning buffers to the pool
// on every path. It returns the writer's first fatal error.
func (w *spillWriter) finish() error {
	for part := range w.staging {
		w.flushStaging(part)
	}
	// A trailing partial stripe group still gets its parity block — the
	// last blocks written are as exposed to device loss as any other.
	w.sealStripe()
	for w.ring.Pending() > 0 || w.ring.Outstanding() > 0 {
		if w.canceled() {
			w.abort(w.ctx.Err())
			break
		}
		w.ring.Submit()
		w.drain(true)
	}
	// Final sweep: nothing should remain tracked, but a leaked buffer is
	// strictly worse than a redundant pass. A canceled context must also
	// surface here even when no I/O is left outstanding — pages handed to
	// spillPage after cancellation were recycled without being written,
	// so reporting success would silently drop them.
	if w.canceled() {
		w.abort(w.ctx.Err())
	} else {
		w.abort(nil)
	}
	return w.firstErr
}

func (w *spillWriter) newUD() uint64 {
	w.nextUD++
	return w.nextUD
}

func (w *spillWriter) fail(err error) {
	if w.firstErr == nil {
		w.firstErr = WrapQueryError("spill", err)
	}
}

// getStagingBuf returns an empty staging buffer from the recycler.
func (w *spillWriter) getStagingBuf() []byte {
	return pages.GetBuf(w.flushAt + pages.DefaultPageSize)[:0]
}

// putStagingBuf hands a staging buffer no write references any more back to
// the recycler.
func (w *spillWriter) putStagingBuf(b []byte) { pages.PutBuf(b) }

// Package uring provides an io_uring-shaped asynchronous I/O interface over
// the simulated NVMe array (paper §5.1).
//
// Each worker thread owns one Ring to avoid contention, mirroring Spilly's
// one-io_uring-per-thread design. Requests are collected in a local
// submission queue and flushed to the "OS" (the array) as a batch by Submit.
// Completions are reaped by Poll, which — like a real completion queue —
// only surfaces requests whose modeled device time has passed. Every
// submission records its start timestamp, the trick the paper implements by
// encoding the start time in the io_uring user-data field, so that the
// self-regulating compression controller can compute I/O cost (cycles per
// byte) from completion latencies (§4.4, Figure 4 B).
package uring

import (
	"time"

	"github.com/spilly-db/spilly/internal/nvmesim"
)

// Op is the request type.
type Op uint8

// Request operations.
const (
	OpWrite Op = iota
	OpRead
)

// Class is the I/O priority class a request carries into the shared
// dispatcher (internal/iosched). Lower values dispatch first. Unbound
// rings ignore it.
type Class uint8

// Priority classes, highest first (§5.1: deep enough to saturate, shallow
// enough that latency-critical requests aren't stuck behind bulk I/O).
const (
	// ClassDemand marks reads a consumer is blocked on.
	ClassDemand Class = iota
	// ClassSpillWrite marks phase-1 spill writes; the spill writer's write-ahead
	// backpressure bounds how many a query can have outstanding.
	ClassSpillWrite
	// ClassPrefetch marks speculative reads: scan lookahead and partition
	// readback prefetch.
	ClassPrefetch
	// ClassBackground marks deferrable maintenance I/O (table bulk loads).
	ClassBackground
	// NumClasses is the number of priority classes.
	NumClasses = 4
)

// String names the class for metrics and logs.
func (c Class) String() string {
	switch c {
	case ClassDemand:
		return "demand"
	case ClassSpillWrite:
		return "spill_write"
	case ClassPrefetch:
		return "prefetch"
	default:
		return "background"
	}
}

// Request is one I/O request a bound ring hands to the shared dispatcher.
// Submitted is the ring-side submission timestamp (the user-data timestamp
// trick), so Completion.Latency includes any time the dispatcher defers the
// request — queueing delay is part of the I/O cost the self-regulating
// compression controller observes. DepthAtSubmit keeps its ring-local
// meaning: this ring's outstanding requests when the request was submitted,
// including itself.
type Request struct {
	Op            Op
	Loc           nvmesim.Loc
	Buf           []byte
	UserData      uint64
	Class         Class
	Submitted     time.Time
	DepthAtSubmit int
}

// Dispatcher is an engine-wide shared I/O scheduler rings can bind to
// (internal/iosched implements it). Register returns the per-ring
// submission handle; query is the fairness key requests are round-robined
// by within a class.
type Dispatcher interface {
	Register(query uint64) DispatchRing
}

// DispatchRing is the dispatcher-side state of one bound ring. All methods
// are safe for concurrent use (the dispatcher serializes internally), but a
// Ring itself remains single-threaded by design.
type DispatchRing interface {
	// Submit enqueues a batch; the dispatcher takes ownership of reqs.
	Submit(reqs []Request)
	// Poll appends ready completions to out. With block set it sleeps —
	// driving the shared dispatch loop — until at least one of this ring's
	// requests completes, the ring has nothing outstanding, or cancel
	// (which may be nil) reports cancellation.
	Poll(out []Completion, block bool, cancel func() bool) []Completion
	// Outstanding counts this ring's submitted-but-unreaped requests.
	Outstanding() int
	// CancelDeferred drops this ring's not-yet-dispatched requests
	// without completing them, returning how many were dropped. Used by
	// teardown paths that will never poll again.
	CancelDeferred() int
}

// Completion is one completed I/O request.
type Completion struct {
	UserData  uint64
	Op        Op
	Loc       nvmesim.Loc
	Buf       []byte // the buffer the request owned; returned to the caller
	N         int    // bytes transferred
	Err       error
	Submitted time.Time     // submission timestamp (user-data timestamp trick)
	Latency   time.Duration // completion time - submission time
	// DepthAtSubmit is the number of requests in flight when this one was
	// submitted (including itself); cost trackers combine it with the
	// reap-time depth to estimate the parallelism its latency was shared
	// across (§4.4, Figure 4 B).
	DepthAtSubmit int
}

// sqe is a pending submission queue entry.
type sqe struct {
	op       Op
	dev      int // write target device (-1 = ring picks round-robin)
	loc      nvmesim.Loc
	buf      []byte
	userData uint64
	class    Class
}

// cqe is an in-flight request ordered by readyAt.
type cqe struct {
	Completion
	readyAt time.Time
}

// cqHeap is a min-heap on readyAt. It is typed, not a container/heap: a
// cqe boxed into an interface is two allocations a request.
type cqHeap []cqe

func (h *cqHeap) push(c cqe) {
	q := append(*h, c)
	*h = q
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].readyAt.Before(q[parent].readyAt) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *cqHeap) pop() cqe {
	q := *h
	top, n := q[0], len(q)-1
	q[0] = q[n]
	q[n] = cqe{} // drop the buffer reference
	q = q[:n]
	*h = q
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if q[c].readyAt.Before(q[least].readyAt) {
				least = c
			}
		}
		if least == i {
			return top
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}

// Ring is a per-thread submission/completion ring. It is not safe for
// concurrent use — by design, exactly like an io_uring instance.
type Ring struct {
	arr      *nvmesim.Array
	clock    nvmesim.Clock
	sq       []sqe
	inflight cqHeap
	lastDev  int // round-robin write spreading (paper §5.1)

	// lease, when set, owns every spill extent the ring's writes allocate,
	// so query teardown can reclaim exactly this query's spilled data.
	// Read-only rings and permanent column-store writes leave it nil.
	lease *nvmesim.Lease

	// cancel, when set, is polled during blocking waits so that a stuck
	// device (or an arbitrarily long latency spike) cannot hang the caller:
	// once it returns true, Poll returns whatever is ready instead of
	// sleeping until the next modeled completion.
	cancel func() bool

	// dr, when set (Bind), routes submissions through the engine's shared
	// I/O dispatcher instead of hitting the array directly; class is the
	// default priority class queued requests carry.
	dr    DispatchRing
	class Class
}

// New returns a ring over the given array.
func New(arr *nvmesim.Array) *Ring {
	return &Ring{arr: arr, clock: arr.Clock(), lastDev: -1}
}

// Array returns the underlying array.
func (r *Ring) Array() *nvmesim.Array { return r.arr }

// SetCancel installs a cancellation probe consulted during blocking polls
// (typically a context.Context check). Passing nil restores indefinite
// blocking.
func (r *Ring) SetCancel(cancel func() bool) { r.cancel = cancel }

// SetLease tags all subsequent queued writes' spill allocations with the
// given lease (nil = unleased). The query's teardown frees the lease, which
// reclaims every extent the ring allocated under it.
func (r *Ring) SetLease(l *nvmesim.Lease) { r.lease = l }

// Bind routes the ring's submissions through the shared dispatcher d under
// the given default class and query fairness key. Call before the first
// Submit; a nil dispatcher leaves the ring private (requests hit the array
// directly at Submit, the pre-scheduler behavior).
func (r *Ring) Bind(d Dispatcher, class Class, query uint64) {
	if d == nil {
		return
	}
	r.dr = d.Register(query)
	r.class = class
}

// CancelDeferred drops the ring's not-yet-dispatched requests, returning
// how many were dropped. Teardown paths that will never poll again use it
// so abandoned requests do not occupy scheduler queues until they drain on
// their own.
func (r *Ring) CancelDeferred() int {
	if r.dr == nil {
		return 0
	}
	return r.dr.CancelDeferred()
}

// QueueWrite queues data to be written to the next writable device in the
// ring's round-robin order and returns the location it will occupy. Devices
// that have failed permanently or whose spill area is full are skipped —
// the failover half of the engine's fault tolerance: once a device dies,
// subsequent writes re-stripe across the survivors. The error of the last
// device tried is returned when no device can take the write. The ring owns
// buf until the corresponding completion is reaped.
func (r *Ring) QueueWrite(buf []byte, userData uint64) (nvmesim.Loc, error) {
	n := r.arr.Devices()
	var lastErr error
	for i := 0; i < n; i++ {
		r.lastDev = (r.lastDev + 1) % n
		if !r.arr.DeviceAlive(r.lastDev) {
			lastErr = &nvmesim.DeviceError{Device: r.lastDev, Op: "alloc", Err: nvmesim.ErrDeviceDead}
			continue
		}
		loc, err := r.QueueWriteDev(r.lastDev, buf, userData)
		if err == nil {
			return loc, nil
		}
		lastErr = err
	}
	return 0, lastErr
}

// QueueWriteDev queues a write to a specific device (used by the column
// store to stripe chunks deterministically).
func (r *Ring) QueueWriteDev(dev int, buf []byte, userData uint64) (nvmesim.Loc, error) {
	off, err := r.arr.AllocSpillLease(dev, len(buf), r.lease)
	if err != nil {
		return 0, err
	}
	loc := nvmesim.MakeLoc(dev, off, len(buf))
	r.sq = append(r.sq, sqe{op: OpWrite, dev: dev, loc: loc, buf: buf, userData: userData, class: r.class})
	return loc, nil
}

// QueueRead queues a read of loc into buf, which must be at least
// loc.Size() bytes minus alignment padding; the stored block length governs.
func (r *Ring) QueueRead(loc nvmesim.Loc, buf []byte, userData uint64) {
	r.sq = append(r.sq, sqe{op: OpRead, loc: loc, buf: buf, userData: userData, class: r.class})
}

// QueueReadClass queues a read under an explicit priority class, overriding
// the ring's default — the PartitionScheduler distinguishes demand reads
// (a consumer blocks on them) from prefetch on the same ring. The class is
// fixed here: a queued read never changes class.
func (r *Ring) QueueReadClass(loc nvmesim.Loc, buf []byte, userData uint64, class Class) {
	r.sq = append(r.sq, sqe{op: OpRead, loc: loc, buf: buf, userData: userData, class: class})
}

// Submit flushes the local submission queue as one batch and returns the
// number of requests submitted. A bound ring hands the batch to the shared
// dispatcher, which may defer individual requests until their device has
// depth-target headroom; an unbound ring hits the array directly.
func (r *Ring) Submit() int {
	n := len(r.sq)
	now := r.clock.Now()
	if r.dr != nil {
		base := r.dr.Outstanding()
		reqs := make([]Request, 0, n)
		for i, e := range r.sq {
			reqs = append(reqs, Request{
				Op: e.op, Loc: e.loc, Buf: e.buf, UserData: e.userData,
				Class: e.class, Submitted: now, DepthAtSubmit: base + i + 1,
			})
		}
		r.sq = r.sq[:0]
		r.dr.Submit(reqs)
		return n
	}
	for _, e := range r.sq {
		c := cqe{Completion: Completion{
			UserData:  e.userData,
			Op:        e.op,
			Loc:       e.loc,
			Buf:       e.buf,
			Submitted: now,
		}}
		switch e.op {
		case OpWrite:
			ready, err := r.arr.Write(e.loc.Device(), e.loc.Offset(), e.buf)
			c.readyAt = ready
			c.Err = err
			c.N = len(e.buf)
		case OpRead:
			ready, nr, err := r.arr.Read(e.loc.Device(), e.loc.Offset(), e.buf)
			c.readyAt = ready
			c.Err = err
			c.N = nr
		}
		if c.Err != nil {
			c.readyAt = now
		}
		c.DepthAtSubmit = len(r.inflight) + 1
		r.inflight.push(c)
	}
	r.sq = r.sq[:0]
	return n
}

// Outstanding returns the number of submitted-but-unreaped requests.
func (r *Ring) Outstanding() int {
	if r.dr != nil {
		return r.dr.Outstanding()
	}
	return len(r.inflight)
}

// Pending returns the number of queued-but-unsubmitted requests.
func (r *Ring) Pending() int { return len(r.sq) }

// maxPollWait bounds one blocking sleep inside Poll when a cancel probe is
// installed, so cancellation is observed within one poll interval even if
// the earliest completion is far in the future (stuck device, latency
// spike).
const maxPollWait = time.Millisecond

// Poll reaps completions whose device time has passed, appending them to out
// and returning the extended slice. If block is true and at least one
// request is in flight but none is ready, Poll sleeps until the earliest
// completion instead of returning empty. With a cancel probe installed
// (SetCancel), a blocking Poll returns early — possibly empty — once the
// probe reports cancellation.
func (r *Ring) Poll(out []Completion, block bool) []Completion {
	if r.dr != nil {
		return r.dr.Poll(out, block, r.cancel)
	}
	for {
		now := r.clock.Now()
		got := false
		for len(r.inflight) > 0 && !r.inflight[0].readyAt.After(now) {
			c := r.inflight.pop()
			cc := c.Completion
			cc.Latency = c.readyAt.Sub(c.Submitted)
			out = append(out, cc)
			got = true
		}
		if got || !block || len(r.inflight) == 0 {
			return out
		}
		if r.cancel != nil && r.cancel() {
			return out
		}
		wait := r.inflight[0].readyAt.Sub(now)
		if r.cancel != nil && wait > maxPollWait {
			wait = maxPollWait
		}
		r.clock.Sleep(wait)
	}
}

// WaitAll submits any pending requests and blocks until every in-flight
// request has completed (or the cancel probe fires), returning all
// completions reaped.
func (r *Ring) WaitAll(out []Completion) []Completion {
	r.Submit()
	for r.Outstanding() > 0 {
		if r.cancel != nil && r.cancel() {
			return out
		}
		out = r.Poll(out, true)
	}
	return out
}

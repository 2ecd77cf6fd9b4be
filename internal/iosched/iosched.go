// Package iosched is the engine-wide prioritized NVMe I/O scheduler: one
// shared dispatch layer per array that every ring submits through (paper
// §5.1–§5.2). With concurrent queries, dozens of private rings would
// otherwise stack requests onto the same per-device backlogs — a demand
// read that has a worker stalled waits behind another query's deep
// prefetch, and nothing bounds per-device queue depth. The scheduler
// restores the paper's "deep enough to saturate, shallow enough for
// latency" property across queries:
//
//   - Every request carries a priority class (demand read > spill write >
//     prefetch read > background) and a query fairness key.
//   - Each device channel (read / write) has an in-flight depth target.
//     Requests dispatch while the channel is below target and otherwise
//     defer in per-class queues. The target bounds the modeled backlog a
//     newly arriving demand read can be stuck behind: backlog ≈ target ×
//     avg request size / channel bandwidth.
//   - Prefetch and background together never hold more than a configured
//     share of the target, so latency-critical classes always find
//     headroom — the demand-read fast path.
//   - Within a class, queries take turns round-robin, so one query's
//     flood cannot monopolize a device against its neighbors.
//   - A request keeps the class it was queued with. Deferred requests age
//     instead: waiting AgeAfter lets a request dispatch one class higher
//     per interval (and an aged prefetch escapes the share cap), so no
//     class starves under sustained higher-priority load.
//
// The scheduler is cooperative, like the simulated array it drives: device
// time passes on the model clock, and any ring's Submit or Poll advances
// shared state — expiring in-flight requests whose device time has passed
// and dispatching deferred ones into the freed slots. A blocking Poll
// sleeps until the earliest in-flight completion anywhere on the array, so
// a ring whose requests are deferred behind another ring's I/O still makes
// progress without that ring polling.
package iosched

import (
	"container/heap"
	"sync"
	"time"

	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/uring"
)

// Defaults. The depth target derives from the backlog model: on the scaled
// CM7-R profile a 64 KiB spill block occupies a device's write channel for
// ~1 ms (64 KiB / 62 MB/s) and its read channel for ~0.6 ms, so 8 requests
// keep a channel saturated while bounding the queueing delay in front of a
// newly arriving demand read to single-digit milliseconds.
const (
	DefaultDepthTarget   = 8
	DefaultPrefetchShare = 0.5
	DefaultAgeAfter      = 2 * time.Millisecond
)

// maxPollWait mirrors uring's bound on one blocking sleep when a cancel
// probe is installed, so cancellation is observed promptly.
const maxPollWait = time.Millisecond

// Config tunes one scheduler.
type Config struct {
	// DepthTarget is the per-device per-channel in-flight target
	// (<= 0 selects DefaultDepthTarget).
	DepthTarget int
	// PrefetchShare is the fraction of the depth target that prefetch and
	// background requests may hold together (<= 0 selects
	// DefaultPrefetchShare; always at least one slot). Aged requests
	// escape the cap.
	PrefetchShare float64
	// AgeAfter promotes a deferred request one priority class per
	// interval waited (<= 0 selects DefaultAgeAfter).
	AgeAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.DepthTarget <= 0 {
		c.DepthTarget = DefaultDepthTarget
	}
	if c.PrefetchShare <= 0 {
		c.PrefetchShare = DefaultPrefetchShare
	}
	if c.AgeAfter <= 0 {
		c.AgeAfter = DefaultAgeAfter
	}
	return c
}

// ioReq is one deferred (queued) request.
type ioReq struct {
	ring      *ringDisp
	op        uring.Op
	loc       nvmesim.Loc
	buf       []byte
	ud        uint64
	class     uring.Class
	query     uint64
	submitted time.Time
	depthAt   int
	enqueued  time.Time
	pass      uint64 // dispatch pass this request could first be issued in
}

// doneEntry is a completed request waiting for its modeled device time to
// pass before the owning ring may reap it.
type doneEntry struct {
	c       uring.Completion
	readyAt time.Time
}

type doneHeap []doneEntry

func (h doneHeap) Len() int            { return len(h) }
func (h doneHeap) Less(i, j int) bool  { return h[i].readyAt.Before(h[j].readyAt) }
func (h doneHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *doneHeap) Push(x interface{}) { *h = append(*h, x.(doneEntry)) }
func (h *doneHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// event is one dispatched request occupying a channel slot until readyAt.
type event struct {
	readyAt time.Time
	dev     int
	ch      int // 0 = write, 1 = read (uring.Op values)
	bg      bool
}

type eventHeap []event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].readyAt.Before(h[j].readyAt) }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// classQueue holds one channel's deferred requests of one class, as
// per-query FIFOs served round-robin.
type classQueue struct {
	fifos map[uint64][]*ioReq
	order []uint64 // rotation of queries with queued requests
	n     int
}

func (q *classQueue) push(rq *ioReq) {
	if q.fifos == nil {
		q.fifos = make(map[uint64][]*ioReq)
	}
	f, ok := q.fifos[rq.query]
	if !ok {
		q.order = append(q.order, rq.query)
	}
	q.fifos[rq.query] = append(f, rq)
	q.n++
}

// pick pops the next request round-robin across queries, but only one old
// enough to run at effective class eff (orig is the queue's tagged class;
// per-query FIFOs keep heads oldest-first, so checking heads suffices).
func (q *classQueue) pick(eff, orig uring.Class, now time.Time, ageAfter time.Duration) *ioReq {
	for i := 0; i < len(q.order); i++ {
		qid := q.order[0]
		f := q.fifos[qid]
		rq := f[0]
		if orig > eff && now.Sub(rq.enqueued) < time.Duration(orig-eff)*ageAfter {
			q.order = append(q.order[1:], qid)
			continue
		}
		if f = f[1:]; len(f) == 0 {
			delete(q.fifos, qid)
			q.order = q.order[1:]
		} else {
			q.fifos[qid] = f
			q.order = append(q.order[1:], qid)
		}
		q.n--
		return rq
	}
	return nil
}

// remove deletes a specific deferred request (cancellation).
func (q *classQueue) remove(rq *ioReq) bool {
	f, ok := q.fifos[rq.query]
	if !ok {
		return false
	}
	for i, x := range f {
		if x != rq {
			continue
		}
		f = append(f[:i], f[i+1:]...)
		if len(f) == 0 {
			delete(q.fifos, rq.query)
			for j, id := range q.order {
				if id == rq.query {
					q.order = append(q.order[:j], q.order[j+1:]...)
					break
				}
			}
		} else {
			q.fifos[rq.query] = f
		}
		q.n--
		return true
	}
	return false
}

// chanState is one device channel's dispatch state.
type chanState struct {
	inflight   int // dispatched requests whose device time has not passed
	bgInflight int // of those, prefetch/background (share-capped)
	queues     [uring.NumClasses]classQueue
	queued     int
}

type devState struct {
	ch [2]chanState // indexed by uring.Op: 0 = write, 1 = read
}

// Scheduler is the shared dispatcher for one array. It implements
// uring.Dispatcher; rings bind to it with uring.Ring.Bind.
type Scheduler struct {
	arr   *nvmesim.Array
	clock nvmesim.Clock
	cfg   Config

	mu     sync.Mutex
	devs   []devState
	events eventHeap
	pass   uint64

	// Counters (guarded by mu; snapshot via Stats).
	dispatchedC [uring.NumClasses]int64
	deferredC   [uring.NumClasses]int64
	agedN       int64
}

// New returns a scheduler over the given array.
func New(arr *nvmesim.Array, cfg Config) *Scheduler {
	return &Scheduler{
		arr:   arr,
		clock: arr.Clock(),
		cfg:   cfg.withDefaults(),
		devs:  make([]devState, arr.Devices()),
	}
}

// Array returns the array this scheduler dispatches to.
func (s *Scheduler) Array() *nvmesim.Array { return s.arr }

// bgCap is the share-capped number of prefetch+background slots per
// channel: at least one (so an idle channel always accepts them), and at
// most target-1 (so demand always has a reserved slot when target > 1).
func (s *Scheduler) bgCap() int {
	cap := int(float64(s.cfg.DepthTarget) * s.cfg.PrefetchShare)
	if cap < 1 {
		cap = 1
	}
	if s.cfg.DepthTarget > 1 && cap > s.cfg.DepthTarget-1 {
		cap = s.cfg.DepthTarget - 1
	}
	return cap
}

// Register implements uring.Dispatcher.
func (s *Scheduler) Register(query uint64) uring.DispatchRing {
	return &ringDisp{s: s, query: query, deferred: make(map[uint64]*ioReq)}
}

// advanceLocked moves shared state to now: expire in-flight requests whose
// device time has passed, then dispatch deferred requests into freed slots.
func (s *Scheduler) advanceLocked(now time.Time) {
	for len(s.events) > 0 && !s.events[0].readyAt.After(now) {
		e := heap.Pop(&s.events).(event)
		c := &s.devs[e.dev].ch[e.ch]
		c.inflight--
		if e.bg {
			c.bgInflight--
		}
	}
	s.dispatchLocked(now)
}

// dispatchLocked issues deferred requests while channels have headroom.
func (s *Scheduler) dispatchLocked(now time.Time) {
	s.pass++
	for di := range s.devs {
		for chIdx := 0; chIdx < 2; chIdx++ {
			c := &s.devs[di].ch[chIdx]
			for c.queued > 0 && c.inflight < s.cfg.DepthTarget {
				rq, eff := s.pickLocked(c, now)
				if rq == nil {
					break
				}
				c.queued--
				s.issueLocked(c, rq, eff, now)
			}
		}
	}
}

// pickLocked selects the next request for a channel: classes in priority
// order, each level also admitting lower-class requests that aged up to
// it; prefetch/background levels respect the share cap (aged requests were
// admitted at a better level above, which is how they escape it).
func (s *Scheduler) pickLocked(c *chanState, now time.Time) (*ioReq, uring.Class) {
	for eff := uring.Class(0); eff < uring.NumClasses; eff++ {
		if eff >= uring.ClassPrefetch && c.bgInflight >= s.bgCap() {
			return nil, 0
		}
		for orig := eff; orig < uring.NumClasses; orig++ {
			q := &c.queues[orig]
			if q.n == 0 {
				continue
			}
			if rq := q.pick(eff, orig, now, s.cfg.AgeAfter); rq != nil {
				return rq, eff
			}
		}
	}
	return nil, 0
}

// issueLocked hands one request to the array and records its completion
// and channel occupancy. Latency spans ring submission to modeled
// completion, so deferral time is part of the observed I/O cost.
func (s *Scheduler) issueLocked(c *chanState, rq *ioReq, eff uring.Class, now time.Time) {
	delete(rq.ring.deferred, rq.ud)
	comp := uring.Completion{
		UserData: rq.ud, Op: rq.op, Loc: rq.loc, Buf: rq.buf,
		Submitted: rq.submitted, DepthAtSubmit: rq.depthAt,
	}
	var readyAt time.Time
	if rq.op == uring.OpWrite {
		readyAt, comp.Err = s.arr.Write(rq.loc.Device(), rq.loc.Offset(), rq.buf)
		comp.N = len(rq.buf)
	} else {
		readyAt, comp.N, comp.Err = s.arr.Read(rq.loc.Device(), rq.loc.Offset(), rq.buf)
	}
	if comp.Err != nil || readyAt.Before(now) {
		readyAt = now
	}
	comp.Latency = readyAt.Sub(rq.submitted)
	s.dispatchedC[rq.class]++
	if s.pass > rq.pass {
		s.deferredC[rq.class]++
	}
	if eff != rq.class {
		s.agedN++
	}
	heap.Push(&rq.ring.done, doneEntry{c: comp, readyAt: readyAt})
	if comp.Err == nil && readyAt.After(now) {
		bg := eff >= uring.ClassPrefetch
		c.inflight++
		if bg {
			c.bgInflight++
		}
		heap.Push(&s.events, event{readyAt: readyAt, dev: rq.loc.Device(), ch: int(rq.op), bg: bg})
	}
}

// ringDisp is the scheduler-side state of one bound ring; it implements
// uring.DispatchRing. All fields are guarded by s.mu.
type ringDisp struct {
	s           *Scheduler
	query       uint64
	outstanding int
	done        doneHeap
	deferred    map[uint64]*ioReq
}

// Submit implements uring.DispatchRing.
func (rd *ringDisp) Submit(reqs []uring.Request) {
	s := rd.s
	s.mu.Lock()
	now := s.clock.Now()
	for i := range reqs {
		r := &reqs[i]
		rq := &ioReq{
			ring: rd, op: r.Op, loc: r.Loc, buf: r.Buf, ud: r.UserData,
			class: r.Class, query: rd.query, submitted: r.Submitted,
			depthAt: r.DepthAtSubmit, enqueued: now, pass: s.pass + 1,
		}
		rd.outstanding++
		rd.deferred[rq.ud] = rq
		c := &s.devs[rq.loc.Device()].ch[int(rq.op)]
		c.queues[rq.class].push(rq)
		c.queued++
	}
	s.advanceLocked(now)
	s.mu.Unlock()
}

// Poll implements uring.DispatchRing. A blocking Poll drives the shared
// dispatch loop while it waits: it sleeps until the earliest in-flight
// completion anywhere on the array, so deferred requests dispatch even
// when the rings holding the device slots never poll again.
func (rd *ringDisp) Poll(out []uring.Completion, block bool, cancel func() bool) []uring.Completion {
	s := rd.s
	s.mu.Lock()
	for {
		now := s.clock.Now()
		s.advanceLocked(now)
		got := false
		for len(rd.done) > 0 && !rd.done[0].readyAt.After(now) {
			e := heap.Pop(&rd.done).(doneEntry)
			out = append(out, e.c)
			rd.outstanding--
			got = true
		}
		if got || !block || rd.outstanding == 0 {
			s.mu.Unlock()
			return out
		}
		if cancel != nil && cancel() {
			s.mu.Unlock()
			return out
		}
		wait := maxPollWait
		if len(s.events) > 0 {
			wait = s.events[0].readyAt.Sub(now)
		}
		if len(rd.done) > 0 {
			if w := rd.done[0].readyAt.Sub(now); w < wait {
				wait = w
			}
		}
		if wait <= 0 {
			wait = 10 * time.Microsecond
		}
		if cancel != nil && wait > maxPollWait {
			wait = maxPollWait
		}
		s.mu.Unlock()
		s.clock.Sleep(wait)
		s.mu.Lock()
	}
}

// Outstanding implements uring.DispatchRing.
func (rd *ringDisp) Outstanding() int {
	rd.s.mu.Lock()
	n := rd.outstanding
	rd.s.mu.Unlock()
	return n
}

// CancelDeferred implements uring.DispatchRing.
func (rd *ringDisp) CancelDeferred() int {
	s := rd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for ud, rq := range rd.deferred {
		c := &s.devs[rq.loc.Device()].ch[int(rq.op)]
		if c.queues[rq.class].remove(rq) {
			c.queued--
			rd.outstanding--
			n++
		}
		delete(rd.deferred, ud)
	}
	return n
}

// ClassCounters are one class's cumulative dispatch counters.
type ClassCounters struct {
	Dispatched int64 // requests issued to the array
	Deferred   int64 // of those, requests that waited at least one pass
}

// Stats is a point-in-time scheduler snapshot.
type Stats struct {
	Classes  [uring.NumClasses]ClassCounters
	Aged     int64 // requests dispatched above their tagged class by aging
	Queued   int64 // currently deferred
	Inflight int64 // dispatched, modeled device time not yet passed

	// Promoted is always 0: a queued read keeps the class it was queued
	// with. The field stays because the benchmark ledger still reads it.
	Promoted int64
}

// Stats returns cumulative counters and current queue gauges.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(s.clock.Now())
	var st Stats
	for i := 0; i < uring.NumClasses; i++ {
		st.Classes[i] = ClassCounters{Dispatched: s.dispatchedC[i], Deferred: s.deferredC[i]}
	}
	st.Aged = s.agedN
	for di := range s.devs {
		for chIdx := 0; chIdx < 2; chIdx++ {
			c := &s.devs[di].ch[chIdx]
			st.Queued += int64(c.queued)
			st.Inflight += int64(c.inflight)
		}
	}
	return st
}

// DeviceStats is one device's scheduler view: in-flight and deferred
// request counts per channel plus the array's modeled channel backlogs.
type DeviceStats struct {
	Device       int
	ReadDepth    int
	WriteDepth   int
	ReadQueued   int
	WriteQueued  int
	ReadBacklog  time.Duration
	WriteBacklog time.Duration
}

// PerDevice returns per-device depth and backlog gauges for /metrics.
func (s *Scheduler) PerDevice() []DeviceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(s.clock.Now())
	out := make([]DeviceStats, len(s.devs))
	for di := range s.devs {
		d := &s.devs[di]
		rb, wb := s.arr.ChannelBacklogs(di)
		out[di] = DeviceStats{
			Device:       di,
			WriteDepth:   d.ch[uring.OpWrite].inflight,
			ReadDepth:    d.ch[uring.OpRead].inflight,
			WriteQueued:  d.ch[uring.OpWrite].queued,
			ReadQueued:   d.ch[uring.OpRead].queued,
			ReadBacklog:  rb,
			WriteBacklog: wb,
		}
	}
	return out
}

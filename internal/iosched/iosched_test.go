package iosched_test

import (
	"sync"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/iosched"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/uring"
)

// spec makes modeled I/O slow enough that scheduling decisions are visible
// on the virtual clock: a 4 KiB transfer occupies a channel for ~4 ms.
var spec = nvmesim.DeviceSpec{
	ReadBandwidth:  1e6,
	WriteBandwidth: 1e6,
	Latency:        time.Millisecond,
}

func newSched(devs int, cfg iosched.Config) (*iosched.Scheduler, *nvmesim.Array, *nvmesim.VirtualClock) {
	clk := nvmesim.NewVirtualClock(time.Unix(0, 0))
	arr := nvmesim.New(devs, spec, clk)
	return iosched.New(arr, cfg), arr, clk
}

// writeBlocks seeds n blocks of the given size on device 0 with a private
// (unscheduled) ring and waits for them, so read tests start from a quiet
// array.
func writeBlocks(t *testing.T, arr *nvmesim.Array, n, size int) []nvmesim.Loc {
	t.Helper()
	r := uring.New(arr)
	locs := make([]nvmesim.Loc, n)
	for i := range locs {
		loc, err := r.QueueWriteDev(0, make([]byte, size), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		locs[i] = loc
	}
	for _, c := range r.WaitAll(nil) {
		if c.Err != nil {
			t.Fatal(c.Err)
		}
	}
	return locs
}

func readyAt(c uring.Completion) time.Time { return c.Submitted.Add(c.Latency) }

// TestDemandDispatchesBeforeQueuedPrefetch: with the prefetch share cap
// holding back a deep lookahead, a newly arriving demand read must find a
// free slot immediately instead of queueing behind the prefetch backlog.
func TestDemandDispatchesBeforeQueuedPrefetch(t *testing.T) {
	sched, arr, _ := newSched(1, iosched.Config{DepthTarget: 2, PrefetchShare: 0.5})
	locs := writeBlocks(t, arr, 6, 4096)

	pre := uring.New(arr)
	pre.Bind(sched, uring.ClassPrefetch, 1)
	for i := 0; i < 5; i++ {
		pre.QueueRead(locs[i], make([]byte, 4096), uint64(100+i))
	}
	pre.Submit()
	st := sched.Stats()
	// bgCap = 2 * 0.5 = 1: one prefetch in flight, the rest deferred.
	if st.Inflight != 1 || st.Queued != 4 {
		t.Fatalf("after prefetch flood: inflight=%d queued=%d, want 1/4", st.Inflight, st.Queued)
	}

	dem := uring.New(arr)
	dem.Bind(sched, uring.ClassDemand, 2)
	dem.QueueRead(locs[5], make([]byte, 4096), 1)
	dem.Submit()
	st = sched.Stats()
	if st.Classes[uring.ClassDemand].Dispatched != 1 {
		t.Fatal("demand read deferred behind the prefetch backlog")
	}
	if st.Inflight != 2 {
		t.Fatalf("inflight=%d after demand dispatch, want 2", st.Inflight)
	}

	if comps := dem.WaitAll(nil); len(comps) != 1 || comps[0].Err != nil {
		t.Fatalf("demand completions: %+v", comps)
	}
	if comps := pre.WaitAll(nil); len(comps) != 5 {
		t.Fatalf("prefetch completions: %d, want 5", len(comps))
	}
	st = sched.Stats()
	if st.Queued != 0 || st.Inflight != 0 {
		t.Fatalf("scheduler did not drain: queued=%d inflight=%d", st.Queued, st.Inflight)
	}
	if st.Classes[uring.ClassPrefetch].Deferred != 4 {
		t.Fatalf("prefetch deferred=%d, want 4", st.Classes[uring.ClassPrefetch].Deferred)
	}
}

// TestSpillWriteBeatsBackground: on the write channel, a queued spill write
// overtakes earlier-queued background (table load) writes.
func TestSpillWriteBeatsBackground(t *testing.T) {
	sched, arr, _ := newSched(1, iosched.Config{DepthTarget: 2, PrefetchShare: 0.5})

	bg := uring.New(arr)
	bg.Bind(sched, uring.ClassBackground, 0)
	for i := 0; i < 3; i++ {
		if _, err := bg.QueueWriteDev(0, make([]byte, 4096), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	bg.Submit()

	sp := uring.New(arr)
	sp.Bind(sched, uring.ClassSpillWrite, 1)
	for i := 0; i < 2; i++ {
		if _, err := sp.QueueWriteDev(0, make([]byte, 4096), uint64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	sp.Submit()

	spComps := sp.WaitAll(nil)
	bgComps := bg.WaitAll(nil)
	if len(spComps) != 2 || len(bgComps) != 3 {
		t.Fatalf("completions: spill=%d bg=%d", len(spComps), len(bgComps))
	}
	// Service order must be bg1 (already in flight), spill1, spill2, bg2,
	// bg3: both spill writes finish before the second background write.
	var spLast, bgSecond time.Time
	for _, c := range spComps {
		if r := readyAt(c); r.After(spLast) {
			spLast = r
		}
	}
	times := []time.Time{readyAt(bgComps[0]), readyAt(bgComps[1]), readyAt(bgComps[2])}
	bgSecond = times[1]
	if !spLast.Before(bgSecond) {
		t.Fatalf("spill writes finished %v, after second background write %v", spLast, bgSecond)
	}
}

// TestPrefetchFloodCannotStarveDemand: a 64-deep prefetch flood from one
// query must not delay another query's demand read by more than the share
// cap's worth of in-flight requests.
func TestPrefetchFloodCannotStarveDemand(t *testing.T) {
	sched, arr, _ := newSched(1, iosched.Config{DepthTarget: 4, PrefetchShare: 0.5})
	locs := writeBlocks(t, arr, 65, 4096)

	pre := uring.New(arr)
	pre.Bind(sched, uring.ClassPrefetch, 1)
	for i := 0; i < 64; i++ {
		pre.QueueRead(locs[i], make([]byte, 4096), uint64(100+i))
	}
	pre.Submit()

	dem := uring.New(arr)
	dem.Bind(sched, uring.ClassDemand, 2)
	dem.QueueRead(locs[64], make([]byte, 4096), 1)
	dem.Submit()

	demComps := dem.WaitAll(nil)
	if len(demComps) != 1 || demComps[0].Err != nil {
		t.Fatalf("demand completions: %+v", demComps)
	}
	demReady := readyAt(demComps[0])
	served := 0
	for _, c := range pre.WaitAll(nil) {
		if !readyAt(c).After(demReady) {
			served++
		}
	}
	// bgCap = 2, so at most the two prefetches already occupying the channel
	// may finish ahead of the demand read.
	if served > 2 {
		t.Fatalf("%d prefetch reads served before the demand read, want <= 2", served)
	}
}

// TestAgingEscapesShareCap: a background request stuck behind a fully
// occupied prefetch share must still dispatch once it has aged, even though
// the cap never clears.
func TestAgingEscapesShareCap(t *testing.T) {
	const ageAfter = 2 * time.Millisecond
	for _, tc := range []struct {
		name  string
		class uring.Class
		// wait is how long the queued request may take to dispatch.
		wait time.Duration
	}{
		// After (background - spill-write) * AgeAfter = 4 ms the request is
		// old enough to run at spill-write level, which the share cap does
		// not bind.
		{"background", uring.ClassBackground, 5 * time.Millisecond},
		// A read keeps the class it was queued with, so aging alone bounds
		// how long a prefetch waits behind a full prefetch share: at most
		// (prefetch - demand) * AgeAfter.
		{"prefetch", uring.ClassPrefetch, time.Duration(uring.ClassPrefetch-uring.ClassDemand) * ageAfter},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched, arr, clk := newSched(1, iosched.Config{
				DepthTarget: 4, PrefetchShare: 0.5, AgeAfter: ageAfter,
			})
			// Two long reads (~200 ms each) pin both prefetch-share slots.
			locs := writeBlocks(t, arr, 2, 200_000)
			small := writeBlocks(t, arr, 1, 4096)

			pre := uring.New(arr)
			pre.Bind(sched, uring.ClassPrefetch, 1)
			pre.QueueRead(locs[0], make([]byte, 200_000), 1)
			pre.QueueRead(locs[1], make([]byte, 200_000), 2)
			pre.Submit()

			late := uring.New(arr)
			late.Bind(sched, uring.ClassPrefetch, 2)
			late.QueueReadClass(small[0], make([]byte, 4096), 9, tc.class)
			late.Submit()

			st := sched.Stats()
			if st.Inflight != 2 || st.Queued != 1 {
				t.Fatalf("before aging: inflight=%d queued=%d, want 2/1", st.Inflight, st.Queued)
			}
			before := st.Classes[tc.class].Dispatched
			clk.Advance(tc.wait)
			st = sched.Stats()
			if st.Classes[tc.class].Dispatched != before+1 || st.Queued != 0 {
				t.Fatalf("aged %s not dispatched within %v: %+v", tc.class, tc.wait, st)
			}
			if st.Aged != 1 || st.Promoted != 0 {
				t.Fatalf("aged=%d promoted=%d, want 1/0", st.Aged, st.Promoted)
			}
		})
	}
}

// TestRoundRobinAcrossQueries: with one query's deep backlog already
// queued, a second query's requests are served round-robin instead of
// waiting for the first queue to empty.
func TestRoundRobinAcrossQueries(t *testing.T) {
	sched, arr, _ := newSched(1, iosched.Config{DepthTarget: 1})
	locs := writeBlocks(t, arr, 16, 4096)

	a := uring.New(arr)
	a.Bind(sched, uring.ClassPrefetch, 1)
	for i := 0; i < 8; i++ {
		a.QueueRead(locs[i], make([]byte, 4096), uint64(i+1))
	}
	a.Submit()

	b := uring.New(arr)
	b.Bind(sched, uring.ClassPrefetch, 2)
	for i := 0; i < 8; i++ {
		b.QueueRead(locs[8+i], make([]byte, 4096), uint64(i+1))
	}
	b.Submit()

	aComps := a.WaitAll(nil)
	bComps := b.WaitAll(nil)
	if len(aComps) != 8 || len(bComps) != 8 {
		t.Fatalf("completions: a=%d b=%d", len(aComps), len(bComps))
	}
	bFirst := readyAt(bComps[0])
	for _, c := range bComps[1:] {
		if r := readyAt(c); r.Before(bFirst) {
			bFirst = r
		}
	}
	aBefore := 0
	for _, c := range aComps {
		if readyAt(c).Before(bFirst) {
			aBefore++
		}
	}
	// Query A had its whole queue in first, but round-robin lets B's first
	// read in after at most the in-flight request plus one more of A's.
	if aBefore > 2 {
		t.Fatalf("%d of query A's reads served before query B's first, want <= 2", aBefore)
	}
}

// TestCancelDeferredDropsQueued: cancelling drops only the deferred
// requests; dispatched ones still complete, and the scheduler drains.
func TestCancelDeferredDropsQueued(t *testing.T) {
	sched, arr, _ := newSched(1, iosched.Config{DepthTarget: 2, PrefetchShare: 0.5})
	locs := writeBlocks(t, arr, 3, 4096)

	r := uring.New(arr)
	r.Bind(sched, uring.ClassPrefetch, 1)
	for i := 0; i < 3; i++ {
		r.QueueRead(locs[i], make([]byte, 4096), uint64(100+i))
	}
	r.Submit()
	if n := r.CancelDeferred(); n != 2 {
		t.Fatalf("CancelDeferred dropped %d, want 2", n)
	}
	if n := r.Outstanding(); n != 1 {
		t.Fatalf("outstanding=%d after cancel, want 1", n)
	}
	if comps := r.WaitAll(nil); len(comps) != 1 || comps[0].UserData != 100 {
		t.Fatalf("completions after cancel: %+v", comps)
	}
	st := sched.Stats()
	if st.Queued != 0 || st.Inflight != 0 {
		t.Fatalf("scheduler did not drain: queued=%d inflight=%d", st.Queued, st.Inflight)
	}
}

// TestLatencyIncludesQueueingDelay: a deferred request's completion latency
// spans ring submission to completion, not dispatch to completion, so cost
// trackers observe scheduling delay.
func TestLatencyIncludesQueueingDelay(t *testing.T) {
	sched, arr, _ := newSched(1, iosched.Config{DepthTarget: 1})
	locs := writeBlocks(t, arr, 4, 4096)

	r := uring.New(arr)
	r.Bind(sched, uring.ClassPrefetch, 1)
	for i := 0; i < 4; i++ {
		r.QueueRead(locs[i], make([]byte, 4096), uint64(i+1))
	}
	r.Submit()
	comps := r.WaitAll(nil)
	if len(comps) != 4 {
		t.Fatalf("completions: %d", len(comps))
	}
	var min, max time.Duration
	for _, c := range comps {
		if min == 0 || c.Latency < min {
			min = c.Latency
		}
		if c.Latency > max {
			max = c.Latency
		}
	}
	// Depth target 1 serializes the channel: the last read waits behind
	// three full transfers, so its latency must dwarf the first one's.
	if max < 3*min {
		t.Fatalf("latencies do not reflect queueing delay: min=%v max=%v", min, max)
	}
}

// TestConcurrentMixedClasses exercises the shared scheduler from eight
// goroutines across all four classes under -race.
func TestConcurrentMixedClasses(t *testing.T) {
	clk := nvmesim.NewVirtualClock(time.Unix(0, 0))
	fast := nvmesim.DeviceSpec{ReadBandwidth: 1e9, WriteBandwidth: 1e9, Latency: time.Microsecond}
	arr := nvmesim.New(4, fast, clk)
	sched := iosched.New(arr, iosched.Config{})
	locs := writeBlocks(t, arr, 32, 4096)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ring := uring.New(arr)
			ring.Bind(sched, uring.Class(g%4), uint64(g))
			for i := 0; i < 25; i++ {
				if g%2 == 0 {
					ring.QueueRead(locs[(g*25+i)%len(locs)], make([]byte, 4096), uint64(i+1))
				} else if _, err := ring.QueueWriteDev(g%4, make([]byte, 2048), uint64(i+1)); err != nil {
					errs <- err
					return
				}
				for _, c := range ring.WaitAll(nil) {
					if c.Err != nil {
						errs <- c.Err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := sched.Stats()
	if st.Queued != 0 || st.Inflight != 0 {
		t.Fatalf("scheduler did not drain: queued=%d inflight=%d", st.Queued, st.Inflight)
	}
	var total int64
	for _, c := range st.Classes {
		total += c.Dispatched
	}
	if total != 200 {
		t.Fatalf("dispatched %d requests, want 200", total)
	}
}

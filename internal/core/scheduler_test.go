package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
)

// spillAllPartitions materializes tuples under ModeSpillAll and returns the
// array, page size, result, and the work list over every spilled partition.
func spillAllPartitions(t *testing.T, compress bool) (arr *nvmesim.Array, pageSize int, res *Result, work []PartitionWork) {
	t.Helper()
	a := fastArray(2)
	s := NewShared(Config{
		PageSize: 4096, Partitions: 4, Budget: pages.NewBudget(32 << 10), Mode: ModeSpillAll,
		Spill: &SpillConfig{Array: a, Compress: compress, RunN: 4},
	})
	b := s.NewBuffer()
	storeN(b, 5000, 32, 0)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < r.Partitions; p++ {
		if len(r.Spilled[p]) > 0 {
			work = append(work, PartitionWork{Part: p, Slots: r.Spilled[p]})
		}
	}
	if len(work) < 2 {
		t.Fatalf("only %d partitions spilled; the scheduler tests need lookahead targets", len(work))
	}
	return a, 4096, r, work
}

// drain pulls every page from a cursor, collecting the stored keys.
func drain(t *testing.T, cur *PartitionCursor, into map[uint64]int) {
	t.Helper()
	for {
		p, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			return
		}
		for i := 0; i < p.Tuples(); i++ {
			into[keyOf(p.Tuple(i))]++
		}
	}
}

func TestSchedulerStreamsAllPartitions(t *testing.T) {
	for _, compress := range []bool{false, true} {
		arr, pageSize, res, work := spillAllPartitions(t, compress)
		budget := pages.NewBudget(1 << 20)
		sched := NewPartitionScheduler(nil, arr, pageSize, work, 4, budget)
		got := map[uint64]int{}
		for _, p := range res.InMemory {
			for i := 0; i < p.Tuples(); i++ {
				got[keyOf(p.Tuple(i))]++
			}
		}
		for i := range work {
			cur := sched.Open(i)
			drain(t, cur, got)
			if cur.Counters()[metrics.SpillReadBytes] == 0 {
				t.Fatalf("compress=%v item %d: no bytes read", compress, i)
			}
			cur.Release()
		}
		sched.Close()
		checkAllKeys(t, got, 5000, 0)
		if used := budget.Used(); used != 0 {
			t.Fatalf("compress=%v: %d bytes of prefetch budget leaked", compress, used)
		}
	}
}

func TestSchedulerPrefetchesAhead(t *testing.T) {
	arr, pageSize, _, work := spillAllPartitions(t, true)
	budget := pages.NewBudget(1 << 20)
	sched := NewPartitionScheduler(nil, arr, pageSize, work, 8, budget)
	defer sched.Close()

	got := map[uint64]int{}
	first := sched.Open(0)
	drain(t, first, got)
	first.Release()

	// Pumping item 0 must have pushed later partitions' reads onto the ring:
	// every remaining open sees readback already under way.
	for i := 1; i < len(work); i++ {
		cur := sched.Open(i)
		drain(t, cur, got)
		if cur.Counters()[metrics.PrefetchedPartitions] != 1 {
			t.Fatalf("item %d was not prefetched while item 0 was consumed", i)
		}
		cur.Release()
	}
	if first.Counters()[metrics.PrefetchedPartitions] != 0 {
		t.Fatal("item 0 counted as prefetched: nothing ran ahead of its own Open")
	}
}

func TestSchedulerBudgetFloorUnderPressure(t *testing.T) {
	arr, pageSize, _, work := spillAllPartitions(t, true)
	// A budget with no headroom at all: every TryReserve fails, so lookahead
	// must shrink to the single unreserved in-flight block — not stop.
	budget := pages.NewBudget(1)
	sched := NewPartitionScheduler(nil, arr, pageSize, work, 8, budget)
	got := map[uint64]int{}
	var prefetched int64
	for i := range work {
		cur := sched.Open(i)
		drain(t, cur, got)
		prefetched += cur.Counters()[metrics.PrefetchedPartitions]
		cur.Release()
	}
	if prefetched == 0 {
		t.Fatal("budget pressure disabled prefetch entirely; the floor should keep one block in flight")
	}
	sched.Close()
	if used := budget.Used(); used != 0 {
		t.Fatalf("%d bytes reserved after Close under a zero-headroom budget", used)
	}
}

func TestSchedulerReadErrorIsStructuredAndSticky(t *testing.T) {
	arr, pageSize, _, work := spillAllPartitions(t, false)
	arr.InjectFailures(0, 1000)
	arr.InjectFailures(1, 1000)
	budget := pages.NewBudget(1 << 20)
	sched := NewPartitionScheduler(nil, arr, pageSize, work, 4, budget)
	cur := sched.Open(0)
	_, err := cur.Next()
	if err == nil {
		t.Fatal("injected read failure not surfaced")
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v (%T), want *QueryError", err, err)
	}
	if qe.Op != "spill-read" || qe.Part != work[0].Part {
		t.Fatalf("QueryError{Op: %q, Part: %d}, want {spill-read, %d}", qe.Op, qe.Part, work[0].Part)
	}
	if _, err2 := cur.Next(); err2 == nil {
		t.Fatal("cursor forgot its error")
	}
	cur.Release()
	sched.Close()
	if used := budget.Used(); used != 0 {
		t.Fatalf("%d bytes reserved after failed readback", used)
	}
}

func TestSchedulerDeviceDeathMidPrefetch(t *testing.T) {
	arr, pageSize, _, work := spillAllPartitions(t, false)
	budget := pages.NewBudget(1 << 20)
	// Depth 1 keeps most of the readback unsubmitted while the first
	// partition drains, so the kill lands on reads the scheduler still has
	// queued — the prefetch-in-progress shape.
	sched := NewPartitionScheduler(nil, arr, pageSize, work, 1, budget)

	// Drain the first partition so prefetch for the rest is in flight, then
	// kill both devices: later partitions must fail with structured errors
	// naming a device — never hang or return partial pages as success.
	got := map[uint64]int{}
	cur := sched.Open(0)
	drain(t, cur, got)
	cur.Release()
	arr.KillDevice(0)
	arr.KillDevice(1)

	sawError := false
	for i := 1; i < len(work); i++ {
		c := sched.Open(i)
		for {
			p, err := c.Next()
			if err != nil {
				var qe *QueryError
				if !errors.As(err, &qe) {
					t.Fatalf("item %d: err = %v (%T), want *QueryError", i, err, err)
				}
				if qe.Device != 0 && qe.Device != 1 {
					t.Fatalf("item %d: QueryError.Device = %d, want a real device", i, qe.Device)
				}
				sawError = true
				break
			}
			if p == nil {
				break // reads completed before the kill; legal
			}
		}
		c.Release()
	}
	if !sawError {
		t.Skip("every prefetched read completed before the kill at this scale")
	}
	sched.Close()
	if used := budget.Used(); used != 0 {
		t.Fatalf("%d bytes reserved after mid-prefetch device death", used)
	}
}

func TestSchedulerCanceledContext(t *testing.T) {
	arr, pageSize, _, work := spillAllPartitions(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sched := NewPartitionScheduler(ctx, arr, pageSize, work, 4, nil)
	cur := sched.Open(0)
	if _, err := cur.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cur.Release()
	sched.Close()
}

func TestSchedulerCloseWithoutOpen(t *testing.T) {
	arr, pageSize, _, work := spillAllPartitions(t, true)
	budget := pages.NewBudget(1 << 20)
	sched := NewPartitionScheduler(nil, arr, pageSize, work, 8, budget)
	// Force prefetch to start without any consumer: open and drop one page.
	cur := sched.Open(0)
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	// Abandon everything mid-stream — the error-path shape. Close must
	// drain the ring and return every reservation and buffer.
	sched.Close()
	sched.Close() // idempotent
	if used := budget.Used(); used != 0 {
		t.Fatalf("%d bytes reserved after abandoning mid-stream", used)
	}
}

func TestSchedulerConcurrentConsumers(t *testing.T) {
	arr, pageSize, _, work := spillAllPartitions(t, true)
	budget := pages.NewBudget(1 << 20)
	sched := NewPartitionScheduler(nil, arr, pageSize, work, 4, budget)
	var mu sync.Mutex
	got := map[uint64]int{}
	var wg sync.WaitGroup
	for i := range work {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cur := sched.Open(i)
			local := map[uint64]int{}
			for {
				p, err := cur.Next()
				if err != nil {
					t.Error(err)
					break
				}
				if p == nil {
					break
				}
				for k := 0; k < p.Tuples(); k++ {
					local[keyOf(p.Tuple(k))]++
				}
			}
			cur.Release()
			mu.Lock()
			for k, v := range local {
				got[k] += v
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	sched.Close()
	if used := budget.Used(); used != 0 {
		t.Fatalf("%d bytes of prefetch budget leaked", used)
	}
	// Every spilled key exactly once (in-memory pages not drained here).
	for k, v := range got {
		if v != 1 {
			t.Fatalf("key %d read %d times", k, v)
		}
	}
}

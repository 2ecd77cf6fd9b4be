package core

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
)

// spillAllPartitions materializes tuples under ModeSpillAll and returns the
// array, result, and the work list over every spilled partition.
func spillAllPartitions(t *testing.T, compress bool) (arr *nvmesim.Array, res *Result, work []PartitionWork) {
	t.Helper()
	a := fastArray(2)
	s := NewShared(Config{
		PageSize: 4096, Partitions: 4, Budget: pages.NewBudget(32 << 10), Mode: ModeSpillAll,
		Spill: &SpillConfig{Array: a, Compress: compress},
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
	return a, r, work
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
		arr, res, work := spillAllPartitions(t, compress)
		budget := pages.NewBudget(1 << 20)
		sched := NewPartitionScheduler(nil, arr, work, 4, budget)
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
	arr, _, work := spillAllPartitions(t, true)
	budget := pages.NewBudget(1 << 20)
	sched := NewPartitionScheduler(nil, arr, work, 8, budget)
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
	arr, _, work := spillAllPartitions(t, true)
	// A budget with no headroom at all: every TryReserve fails, so lookahead
	// must shrink to the single unreserved in-flight block — not stop.
	budget := pages.NewBudget(1)
	sched := NewPartitionScheduler(nil, arr, work, 8, budget)
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
	arr, _, work := spillAllPartitions(t, false)
	arr.SetFaultPlan(0, nvmesim.FaultPlan{ReadErrRate: 1})
	arr.SetFaultPlan(1, nvmesim.FaultPlan{ReadErrRate: 1})
	budget := pages.NewBudget(1 << 20)
	sched := NewPartitionScheduler(nil, arr, work, 4, budget)
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
	arr, _, work := spillAllPartitions(t, false)
	budget := pages.NewBudget(1 << 20)
	// Depth 1 keeps most of the readback unsubmitted while the first
	// partition drains, so the kill lands on reads the scheduler still has
	// queued — the prefetch-in-progress shape.
	sched := NewPartitionScheduler(nil, arr, work, 1, budget)

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
	arr, _, work := spillAllPartitions(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sched := NewPartitionScheduler(ctx, arr, work, 4, nil)
	cur := sched.Open(0)
	if _, err := cur.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cur.Release()
	sched.Close()
}

func TestSchedulerCloseWithoutOpen(t *testing.T) {
	arr, _, work := spillAllPartitions(t, true)
	budget := pages.NewBudget(1 << 20)
	sched := NewPartitionScheduler(nil, arr, work, 8, budget)
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
	arr, _, work := spillAllPartitions(t, true)
	budget := pages.NewBudget(1 << 20)
	sched := NewPartitionScheduler(nil, arr, work, 4, budget)
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

// spillFramedLZ4 spills n 64-byte tuples, keys 0..n-1 stored in order, into
// two partitions under ModeSpillAll, with every staging block LZ4-compressed
// and framed, and returns the array, the result and its work list. A partition's
// pages are spilled in the order they filled, so in spill order its keys
// ascend.
func spillFramedLZ4(t *testing.T, n int) (*nvmesim.Array, *Result, []PartitionWork) {
	t.Helper()
	arr := fastArray(2)
	s := NewShared(Config{
		PageSize: 4096, Partitions: 2, Budget: pages.NewBudget(32 << 10), Mode: ModeSpillAll,
		Spill: &SpillConfig{Array: arr, Compress: true, Parity: 1},
	})
	b := s.NewBuffer()
	b.reg.PinScheme(codec.LZ4Default) // every block compressed, however the timing falls
	for i := 0; i < n; i++ {
		key := uint64(i)
		tuple := tup(key, 64)
		// Two hashed words keep the pages only partly compressible, so a
		// partition spans many blocks.
		binary.LittleEndian.PutUint64(tuple[8:], hashOf(key))
		binary.LittleEndian.PutUint64(tuple[16:], hashOf(key+1))
		b.StoreTuple(tuple, hashOf(key))
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var work []PartitionWork
	for p := 0; p < res.Partitions; p++ {
		blocks := map[nvmesim.Loc]bool{}
		for _, sl := range res.Spilled[p] {
			if sl.Scheme != codec.LZ4Default || sl.Seq == 0 {
				t.Fatalf("partition %d slot %+v is not an LZ4-compressed frame", p, sl)
			}
			blocks[sl.Loc] = true
		}
		if len(blocks) < 4 {
			t.Fatalf("partition %d spans %d blocks; the cursor tests need several", p, len(blocks))
		}
		work = append(work, PartitionWork{Part: p, Slots: res.Spilled[p]})
	}
	return arr, res, work
}

// pageKeys appends the keys of p's tuples to keys.
func pageKeys(keys []uint64, p *pages.Page) []uint64 {
	for i := 0; i < p.Tuples(); i++ {
		keys = append(keys, keyOf(p.Tuple(i)))
	}
	return keys
}

// checkAscending fails unless keys are exactly partition part's keys below
// n, in ascending order.
func checkAscending(t *testing.T, keys []uint64, part, n int) {
	t.Helper()
	want := 0
	for i := 0; i < n; i++ {
		if int(hashOf(uint64(i))>>63) == part {
			want++
		}
	}
	if len(keys) != want {
		t.Fatalf("partition %d: read %d tuples, want %d", part, len(keys), want)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("partition %d: tuple %d has key %d after %d; pages left spill order", part, i, keys[i], keys[i-1])
		}
	}
}

// TestCursorYieldsPagesInSpillOrder: a latency spike on the device holding a
// partition's first block makes its later blocks complete first. The cursor
// still hands out the partition's pages in spill (slot) order — compressed,
// framed slots included.
func TestCursorYieldsPagesInSpillOrder(t *testing.T) {
	const n = 40000
	arr, res, work := spillFramedLZ4(t, n)
	first := work[0]
	dev := first.Slots[0].Loc.Device()
	// The plan's request counter starts now: request 1 on dev is block 0's
	// read, the first block the scheduler issues.
	arr.SetFaultPlan(dev, nvmesim.FaultPlan{
		Script:       map[int64]nvmesim.FaultKind{1: nvmesim.FaultSpike},
		SpikeLatency: 20 * time.Millisecond,
	})
	sched := NewPartitionScheduler(nil, arr, work[:1], 8, nil)
	sched.SetIntegrity(res.Stripes)
	defer sched.Close()
	cur := sched.Open(0)
	var keys []uint64
	for {
		p, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			break
		}
		keys = pageKeys(keys, p)
	}
	if s := arr.FaultStats(dev).Spikes; s != 1 {
		t.Fatalf("%d spikes on device %d; block 0's read was not delayed", s, dev)
	}
	checkAscending(t, keys, first.Part, n)
	if v := cur.Counters()[metrics.SpillPagesVerified]; v != int64(len(first.Slots)) {
		t.Fatalf("%d pages verified, want all %d", v, len(first.Slots))
	}
	cur.Release()
}

// TestCursorFootprintIsReadDepthPlusOne: partitions opened together, as the
// external sort's merge opens its runs, and read one page at a time by a
// consumer that declares everything before its latest page dead
// (ReleaseEarlier): no cursor ever owns the buffers of more than read depth +
// 1 blocks, nor more than one decoded block — the one its latest page is in.
// Close still returns every buffer, also those of a partition abandoned
// halfway.
func TestCursorFootprintIsReadDepthPlusOne(t *testing.T) {
	const n = 40000
	arr, res, work := spillFramedLZ4(t, n)
	for _, depth := range []int{1, 3} {
		sched := NewPartitionScheduler(nil, arr, work, depth, nil)
		sched.SetIntegrity(res.Stripes)
		var curs []*PartitionCursor
		for i := range work {
			curs = append(curs, sched.Open(i))
		}
		for i, cur := range curs {
			part := work[i].Part
			var keys []uint64
			maxBlocks, maxDecoded := 0, 0
			for pg := 0; ; pg++ {
				p, err := cur.Next()
				if err != nil {
					t.Fatal(err)
				}
				cur.ReleaseEarlier()
				for j, c := range curs {
					blocks, decoded := ownedBufs(c.it)
					if blocks > depth+1 || decoded > 1 {
						t.Fatalf("depth %d, reading partition %d, page %d: partition %d owns %d blocks and %d decoded blocks",
							depth, part, pg, work[j].Part, blocks, decoded)
					}
				}
				blocks, decoded := ownedBufs(cur.it)
				maxBlocks, maxDecoded = max(maxBlocks, blocks), max(maxDecoded, decoded)
				if p == nil {
					cur.Release()
					if blocks, decoded := ownedBufs(cur.it); blocks+decoded != 0 {
						t.Fatalf("depth %d, partition %d: Release left %d blocks and %d decoded blocks",
							depth, part, blocks, decoded)
					}
					checkAscending(t, keys, part, n)
					break
				}
				keys = pageKeys(keys, p)
				if i == 1 && pg == 10 {
					break // abandoned mid-partition: Close must reclaim it
				}
			}
			if maxBlocks < 2 || maxDecoded != 1 {
				t.Fatalf("depth %d, partition %d: at most %d blocks and %d decoded blocks owned; want read-ahead and one decoded block",
					depth, part, maxBlocks, maxDecoded)
			}
		}
		sched.Close()
		for i, it := range sched.items {
			if blocks, decoded := ownedBufs(it); blocks+decoded != 0 {
				t.Fatalf("depth %d, item %d: Close left %d blocks and %d decoded blocks", depth, i, blocks, decoded)
			}
		}
	}
}

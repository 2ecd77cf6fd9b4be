package core

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/xhash"
)

// fastArray is an NVMe array fast enough that tests are not I/O-bound.
func fastArray(devs int) *nvmesim.Array {
	return nvmesim.New(devs, nvmesim.DeviceSpec{
		ReadBandwidth:  4e9,
		WriteBandwidth: 2e9,
		Latency:        20 * time.Microsecond,
	}, nvmesim.RealClock{})
}

// tup encodes a test tuple: 8-byte key + payload padding.
func tup(key uint64, size int) []byte {
	if size < 8 {
		size = 8
	}
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b, key)
	return b
}

func keyOf(t []byte) uint64 { return binary.LittleEndian.Uint64(t) }

func hashOf(key uint64) uint64 { return xhash.U64(key, 0) }

// storeN stores n distinct tuples of the given size through buf.
func storeN(b *Buffer, n, size int, offset uint64) {
	for i := 0; i < n; i++ {
		key := offset + uint64(i)
		b.StoreTuple(tup(key, size), hashOf(key))
	}
}

// collectKeys gathers every stored key from a finalized result, reading
// spilled partitions back from the array.
func collectKeys(t *testing.T, arr *nvmesim.Array, res *Result) map[uint64]int {
	t.Helper()
	out := map[uint64]int{}
	scan := func(p *pages.Page) {
		for i := 0; i < p.Tuples(); i++ {
			out[keyOf(p.Tuple(i))]++
		}
	}
	for _, p := range res.Unpartitioned {
		scan(p)
	}
	for _, p := range res.InMemory {
		scan(p)
	}
	for part := 0; part < res.Partitions; part++ {
		if len(res.Spilled[part]) == 0 {
			continue
		}
		r := openPartition(t, nil, arr, part, res.Spilled[part], nil)
		pgs, err := readAll(r)
		if err != nil {
			t.Fatalf("reading partition %d: %v", part, err)
		}
		for _, p := range pgs {
			scan(p)
		}
		r.Release()
	}
	return out
}

func checkAllKeys(t *testing.T, got map[uint64]int, n int, offset uint64) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("got %d distinct keys, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if got[offset+uint64(i)] != 1 {
			t.Fatalf("key %d appears %d times, want 1", offset+uint64(i), got[offset+uint64(i)])
		}
	}
}

func TestInMemoryNoPartitioning(t *testing.T) {
	s := NewShared(Config{PageSize: 4096, Partitions: 8})
	b := s.NewBuffer()
	storeN(b, 1000, 32, 0)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.PartitioningActive() {
		t.Fatal("partitioning triggered without memory pressure")
	}
	if len(res.InMemory) != 0 {
		t.Fatal("partitioned pages exist without partitioning")
	}
	if res.HasSpilled() {
		t.Fatal("spilled without a budget")
	}
	checkAllKeys(t, collectKeys(t, nil, res), 1000, 0)
	if res.Tuples != 1000 {
		t.Fatalf("Tuples = %d", res.Tuples)
	}
}

func TestAdaptivePartitioningTriggers(t *testing.T) {
	budget := pages.NewBudget(128 << 10)
	s := NewShared(Config{PageSize: 4096, Partitions: 8, Budget: budget, PartitionAt: 0.25})
	b := s.NewBuffer()
	// ~45 KB of tuples: crosses the 32 KB partition threshold but stays
	// within the budget (no spill target is configured here).
	storeN(b, 1400, 32, 0)
	if !s.PartitioningActive() {
		t.Fatal("partitioning did not trigger under memory pressure")
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Finalize()
	if len(res.Unpartitioned) == 0 {
		t.Fatal("no unpartitioned head: partitioning was not adaptive")
	}
	if len(res.InMemory) == 0 {
		t.Fatal("no partitioned pages after trigger")
	}
	checkAllKeys(t, collectKeys(t, nil, res), 1400, 0)
}

// TestPartitionPrefixInvariant checks §5.3: partition bits are a prefix of
// the hash, and every tuple on a partitioned page belongs to that partition.
func TestPartitionPrefixInvariant(t *testing.T) {
	s := NewShared(Config{PageSize: 4096, Partitions: 16, Mode: ModeAlwaysPartition})
	b := s.NewBuffer()
	storeN(b, 5000, 16, 0)
	b.Finish()
	res, _ := s.Finalize()
	if len(res.Unpartitioned) != 0 {
		t.Fatal("always-partition mode produced unpartitioned pages")
	}
	for part := 0; part < res.Partitions; part++ {
		for _, p := range res.InMemoryByPart(part) {
			if p.Part != part {
				t.Fatalf("page in list %d has Part=%d", part, p.Part)
			}
			for i := 0; i < p.Tuples(); i++ {
				h := hashOf(keyOf(p.Tuple(i)))
				if int(h>>(64-4)) != part {
					t.Fatalf("tuple with hash prefix %d on partition-%d page", h>>(64-4), part)
				}
			}
		}
	}
	checkAllKeys(t, collectKeys(t, nil, res), 5000, 0)
}

func TestSpillingRoundTrip(t *testing.T) {
	arr := fastArray(2)
	budget := pages.NewBudget(128 << 10)
	s := NewShared(Config{
		PageSize: 4096, Partitions: 8, Budget: budget, PartitionAt: 0.3,
		Spill: &SpillConfig{Array: arr},
	})
	b := s.NewBuffer()
	const n = 20000 // ~640 KB of tuples into a 128 KB budget
	storeN(b, n, 32, 0)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasSpilled() {
		t.Fatal("5x overflow did not spill")
	}
	if res.Counters[metrics.SpilledBytes] == 0 || res.Counters[metrics.WrittenBytes] == 0 {
		t.Fatalf("spill counters empty: %+v", res)
	}
	checkAllKeys(t, collectKeys(t, arr, res), n, 0)
}

func TestHybridKeepsPartitionsInMemory(t *testing.T) {
	arr := fastArray(2)
	budget := pages.NewBudget(256 << 10)
	s := NewShared(Config{
		PageSize: 4096, Partitions: 8, Budget: budget, PartitionAt: 0.3,
		Spill: &SpillConfig{Array: arr},
	})
	b := s.NewBuffer()
	const n = 10000 // ~320 KB: slight overflow of the 256 KB budget
	storeN(b, n, 32, 0)
	b.Finish()
	res, _ := s.Finalize()
	if !res.HasSpilled() {
		t.Fatal("slight overflow did not spill at all")
	}
	if got := len(res.SpilledPartitions()); got == res.Partitions {
		t.Fatalf("hybrid spilling spilled all %d partitions on slight overflow", got)
	}
	checkAllKeys(t, collectKeys(t, arr, res), n, 0)
}

func TestSpillAllSpillsEverything(t *testing.T) {
	arr := fastArray(2)
	budget := pages.NewBudget(256 << 10)
	s := NewShared(Config{
		PageSize: 4096, Partitions: 8, Budget: budget, Mode: ModeSpillAll,
		Spill: &SpillConfig{Array: arr},
	})
	b := s.NewBuffer()
	const n = 10000
	storeN(b, n, 32, 0)
	b.Finish()
	res, _ := s.Finalize()
	if got := len(res.SpilledPartitions()); got != res.Partitions {
		t.Fatalf("spill-all spilled %d of %d partitions", got, res.Partitions)
	}
	checkAllKeys(t, collectKeys(t, arr, res), n, 0)
}

func TestSpillAllSpillsMoreThanHybrid(t *testing.T) {
	run := func(mode Mode) int64 {
		arr := fastArray(2)
		s := NewShared(Config{
			PageSize: 4096, Partitions: 8, Budget: pages.NewBudget(256 << 10),
			PartitionAt: 0.3, Mode: mode,
			Spill: &SpillConfig{Array: arr},
		})
		b := s.NewBuffer()
		storeN(b, 10000, 32, 0)
		b.Finish()
		res, _ := s.Finalize()
		return res.Counters[metrics.SpilledBytes]
	}
	hybrid := run(ModeAdaptive)
	all := run(ModeSpillAll)
	if hybrid >= all {
		t.Fatalf("hybrid spilled %d >= spill-all %d; §6.5 shape violated", hybrid, all)
	}
}

func TestOutOfMemoryWithoutSpill(t *testing.T) {
	s := NewShared(Config{PageSize: 4096, Budget: pages.NewBudget(16 << 10), Mode: ModeNeverPartition})
	b := s.NewBuffer()
	err := func() (err error) {
		defer RecoverOOM(&err)
		storeN(b, 10000, 32, 0)
		return nil
	}()
	if err != ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestCompressedSpillRoundTrip(t *testing.T) {
	arr := fastArray(1)
	s := NewShared(Config{
		PageSize: 4096, Partitions: 8, Budget: pages.NewBudget(128 << 10), PartitionAt: 0.3,
		Spill: &SpillConfig{Array: arr, Compress: true},
	})
	b := s.NewBuffer()
	const n = 20000
	storeN(b, n, 32, 0)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasSpilled() {
		t.Fatal("did not spill")
	}
	var histTotal int64
	for _, v := range res.SchemeHistogram {
		histTotal += v
	}
	if histTotal != res.SpilledPages {
		t.Fatalf("histogram covers %d pages, spilled %d", histTotal, res.SpilledPages)
	}
	checkAllKeys(t, collectKeys(t, arr, res), n, 0)
}

func TestCompressionReducesWrittenBytes(t *testing.T) {
	// Force deep compression by making I/O very slow relative to CPU.
	arr := nvmesim.New(1, nvmesim.DeviceSpec{
		ReadBandwidth:  50e6,
		WriteBandwidth: 10e6, // 10 MB/s: strongly I/O-bound
		Latency:        50 * time.Microsecond,
	}, nvmesim.RealClock{})
	s := NewShared(Config{
		PageSize: 4096, Partitions: 8, Budget: pages.NewBudget(64 << 10), PartitionAt: 0.3,
		Spill: &SpillConfig{Array: arr, Compress: true},
	})
	b := s.NewBuffer()
	// About 50 staging blocks: more than spillMaxAhead, so the writer waits
	// on completions and the regulator sees the slow device mid-spill.
	storeN(b, 100000, 32, 0)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Finalize()
	if res.Counters[metrics.WrittenBytes] >= res.Counters[metrics.SpilledBytes] {
		t.Fatalf("I/O-bound spill not compressed: wrote %d of %d raw", res.Counters[metrics.WrittenBytes], res.Counters[metrics.SpilledBytes])
	}
	checkAllKeys(t, collectKeys(t, arr, res), 100000, 0)
}

func TestSpillWriteErrorSurfaces(t *testing.T) {
	arr := fastArray(1)
	arr.SetFaultPlan(0, nvmesim.FaultPlan{WriteErrRate: 1})
	s := NewShared(Config{
		PageSize: 4096, Partitions: 8, Budget: pages.NewBudget(32 << 10), PartitionAt: 0.3,
		Spill: &SpillConfig{Array: arr},
	})
	b := s.NewBuffer()
	storeN(b, 20000, 32, 0)
	if err := b.Finish(); err == nil {
		t.Fatal("injected write failures did not surface in Finish")
	}
	if _, err := s.Finalize(); err == nil {
		t.Fatal("injected write failures did not surface in Finalize")
	}
}

func TestMultiThreadedMaterialization(t *testing.T) {
	arr := fastArray(2)
	s := NewShared(Config{
		PageSize: 4096, Partitions: 16, Budget: pages.NewBudget(256 << 10), PartitionAt: 0.3,
		Spill: &SpillConfig{Array: arr},
	})
	const threads, perThread = 4, 8000
	var wg sync.WaitGroup
	errs := make([]error, threads)
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			b := s.NewBuffer()
			storeN(b, perThread, 32, uint64(th*perThread))
			errs[th] = b.Finish()
		}(th)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	got := collectKeys(t, arr, res)
	checkAllKeys(t, got, threads*perThread, 0)
}

func TestModesEquivalent(t *testing.T) {
	// All materialization modes must preserve the tuple multiset across
	// a range of budgets (the core invariant behind "unified operators").
	const n = 6000
	for _, mode := range []Mode{ModeAdaptive, ModeAlwaysPartition, ModeSpillAll} {
		for _, budgetKB := range []int64{32, 128, 1024} {
			arr := fastArray(2)
			s := NewShared(Config{
				PageSize: 4096, Partitions: 8, Budget: pages.NewBudget(budgetKB << 10),
				PartitionAt: 0.4, Mode: mode,
				Spill: &SpillConfig{Array: arr},
			})
			b := s.NewBuffer()
			storeN(b, n, 40, 0)
			if err := b.Finish(); err != nil {
				t.Fatalf("mode %d budget %dK: %v", mode, budgetKB, err)
			}
			res, err := s.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			got := collectKeys(t, arr, res)
			if len(got) != n {
				t.Fatalf("mode %d budget %dK: %d keys, want %d", mode, budgetKB, len(got), n)
			}
		}
	}
}

func TestVariableSizeTuples(t *testing.T) {
	arr := fastArray(1)
	s := NewShared(Config{
		PageSize: 4096, Partitions: 8, Budget: pages.NewBudget(64 << 10), PartitionAt: 0.3,
		Spill: &SpillConfig{Array: arr, Compress: true},
	})
	b := s.NewBuffer()
	const n = 8000
	for i := 0; i < n; i++ {
		key := uint64(i)
		size := 9 + i%200
		b.StoreTuple(tup(key, size), hashOf(key))
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Finalize()
	got := collectKeys(t, arr, res)
	checkAllKeys(t, got, n, 0)
}

func TestOversizedTuplePanics(t *testing.T) {
	s := NewShared(Config{PageSize: 4096})
	b := s.NewBuffer()
	defer func() {
		if recover() == nil {
			t.Fatal("storing a tuple larger than the page did not panic")
		}
	}()
	b.StoreTuple(make([]byte, 8192), 1)
}

func TestAllocTuple(t *testing.T) {
	s := NewShared(Config{PageSize: 4096})
	b := s.NewBuffer()
	dst := b.AllocTuple(16, hashOf(7))
	binary.LittleEndian.PutUint64(dst, 7)
	b.Finish()
	res, _ := s.Finalize()
	got := collectKeys(t, nil, res)
	if got[7] != 1 {
		t.Fatal("in-place tuple lost")
	}
}

func TestFinishIdempotent(t *testing.T) {
	s := NewShared(Config{PageSize: 4096})
	b := s.NewBuffer()
	storeN(b, 10, 16, 0)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Finalize()
	if res.Tuples != 10 {
		t.Fatalf("double Finish double-counted: %d tuples", res.Tuples)
	}
}

func TestBudgetBounded(t *testing.T) {
	// During heavy spilling, page memory must stay near the budget: the
	// whole point of Listing 2's bounded pool.
	arr := fastArray(2)
	budget := pages.NewBudget(128 << 10)
	s := NewShared(Config{
		PageSize: 4096, Partitions: 8, Budget: budget, PartitionAt: 0.3,
		Spill: &SpillConfig{Array: arr},
	})
	b := s.NewBuffer()
	maxUsed := int64(0)
	for i := 0; i < 50000; i++ {
		key := uint64(i)
		b.StoreTuple(tup(key, 32), hashOf(key))
		if u := budget.Used(); u > maxUsed {
			maxUsed = u
		}
	}
	b.Finish()
	// Allow budget + in-flight headroom (write buffers + slack).
	limit := int64(128<<10) + int64(16*4096)
	if maxUsed > limit {
		t.Fatalf("memory grew to %d, budget 128K + headroom %d", maxUsed, limit)
	}
}

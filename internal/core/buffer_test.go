package core

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/xhash"
)

// partitioned returns the result's partitioned in-memory pages, partition by
// partition.
func partitioned(res *Result) []*pages.Page { return res.MemPages()[len(res.Unpartitioned):] }

// schemePages sums the result's scheme rows: the pages it spilled.
func schemePages(res *Result) int64 {
	var n int64
	for k := metrics.SpilledPages; k < metrics.NumCounters; k++ {
		n += res.Counters[k]
	}
	return n
}

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
	for _, p := range res.MemPages() {
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
	if len(partitioned(res)) != 0 {
		t.Fatal("partitioned pages exist without partitioning")
	}
	if res.HasSpilled() {
		t.Fatal("spilled without a budget")
	}
	checkAllKeys(t, collectKeys(t, nil, res), 1000, 0)
	if n := res.Counters[metrics.TuplesStored]; n != 1000 {
		t.Fatalf("TuplesStored = %d", n)
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
	if len(partitioned(res)) == 0 {
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
		for _, p := range res.InMemory[part] {
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

// TestBufferKeepHandsPagesToResult: pages a caller fills itself and hands
// back through Keep come out in Result.Unpartitioned; Result.Recycle recycles
// them, and their budget charge returns at ReleaseMemory, not before. A clean
// page put back in the pool has its charge returned at Finish.
func TestBufferKeepHandsPagesToResult(t *testing.T) {
	bud := pages.NewBudget(0)
	s := NewShared(Config{PageSize: 4096, Partitions: 1, Budget: bud, Mode: ModeNeverPartition})
	b := s.NewBuffer()
	kept := []*pages.Page{b.Pool().Get(), b.Pool().Get()}
	for _, p := range kept {
		p.Append([]byte("a run's tuple"))
	}
	b.Pool().Put(b.Pool().Get())
	b.Keep(kept)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unpartitioned) != 2 || res.Unpartitioned[0] != kept[0] || res.Unpartitioned[1] != kept[1] {
		t.Fatalf("Result.Unpartitioned holds %d pages, not the two kept", len(res.Unpartitioned))
	}
	if got := bud.Used(); got != 2*4096 {
		t.Fatalf("budget holds %d bytes after Finish, want the two kept pages' %d", got, 2*4096)
	}
	res.Recycle()
	for i, p := range kept {
		if p.Size() != 0 {
			t.Fatalf("kept page %d not recycled by Result.Recycle", i)
		}
	}
	if got := bud.Used(); got != 2*4096 {
		t.Fatalf("budget holds %d bytes after Recycle, want %d until ReleaseMemory", got, 2*4096)
	}
	res.ReleaseMemory(bud)
	if got := bud.Used(); got != 0 {
		t.Fatalf("budget holds %d bytes after ReleaseMemory", got)
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
	var slots int64
	for _, s := range res.Spilled {
		slots += int64(len(s))
	}
	if n := schemePages(res); n != slots {
		t.Fatalf("scheme rows count %d pages, %d were spilled", n, slots)
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

func TestReserveInPlace(t *testing.T) {
	s := NewShared(Config{PageSize: 4096})
	b := s.NewBuffer()
	dsts := make([][]byte, 1)
	if n := b.Reserve([]int{16}, []uint64{hashOf(7)}, dsts); n != 1 || len(dsts[0]) != 16 {
		t.Fatalf("Reserve = %d tuples, %d bytes; want 1 of 16", n, len(dsts[0]))
	}
	binary.LittleEndian.PutUint64(dsts[0], 7)
	b.Finish()
	res, _ := s.Finalize()
	got := collectKeys(t, nil, res)
	if got[7] != 1 {
		t.Fatal("in-place tuple lost")
	}
}

// mixedTuples returns n tuples of 8 to 200 bytes with distinct keys, and
// their hashes.
func mixedTuples(n int) ([][]byte, []uint64) {
	tuples, hashes := make([][]byte, n), make([]uint64, n)
	for i := range tuples {
		key := uint64(i)
		tuples[i] = tup(key, 8+int(hashOf(key)%193))
		for j := 8; j < len(tuples[i]); j++ {
			tuples[i][j] = byte(i + j)
		}
		hashes[i] = hashOf(key)
	}
	return tuples, hashes
}

// reserveAll materializes tuples through Reserve the way the engine's batch
// encoder does: batch tuples at a time, each returned prefix filled before
// the next call. It returns how many tuples it stored before the buffer ran
// out of memory, with the error.
func reserveAll(b *Buffer, tuples [][]byte, hashes []uint64, batch int) (stored int, err error) {
	defer RecoverOOM(&err)
	sizes, dsts := make([]int, batch), make([][]byte, batch)
	for len(tuples) > 0 {
		n := min(batch, len(tuples))
		for i := range n {
			sizes[i] = len(tuples[i])
		}
		for i := 0; i < n; {
			k := b.Reserve(sizes[i:n], hashes[i:n], dsts[i:n])
			for j := i; j < i+k; j++ {
				copy(dsts[j], tuples[j])
			}
			i += k
			stored += k
		}
		tuples, hashes = tuples[n:], hashes[n:]
	}
	return stored, nil
}

// storeAll materializes tuples one StoreTuple call at a time, with the same
// results as reserveAll.
func storeAll(b *Buffer, tuples [][]byte, hashes []uint64) (stored int, err error) {
	defer RecoverOOM(&err)
	for i, tuple := range tuples {
		b.StoreTuple(tuple, hashes[i])
		stored++
	}
	return stored, nil
}

// samePages fails unless two page lists hold the same tuples in the same
// order, page by page, under the same partitions.
func samePages(t *testing.T, what string, got, want []*pages.Page) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pages, want %d", what, len(got), len(want))
	}
	for i, p := range got {
		q := want[i]
		if p.Part != q.Part || p.Tuples() != q.Tuples() {
			t.Fatalf("%s page %d: part %d with %d tuples, want part %d with %d", what, i, p.Part, p.Tuples(), q.Part, q.Tuples())
		}
		for j := 0; j < p.Tuples(); j++ {
			if !bytes.Equal(p.Tuple(j), q.Tuple(j)) {
				t.Fatalf("%s page %d tuple %d: %x, want %x", what, i, j, p.Tuple(j), q.Tuple(j))
			}
		}
	}
}

// TestReserveMatchesStoreTuple: reserving mixed-size tuples a batch at a
// time and filling them in place builds the same pages as storing them one
// at a time — the same tuples in the same order, the same partitions, the
// same spilled slots and partition mask, and the same point of failure when
// memory runs out without a spill target, with every reserved tuple complete.
func TestReserveMatchesStoreTuple(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   func() Config
		n     int
		oom   bool
		check func(t *testing.T, res *Result)
	}{
		{name: "unpartitioned", n: 3000,
			cfg: func() Config { return Config{PageSize: 4096} }},
		{name: "partitioning-switch", n: 3000,
			cfg: func() Config {
				return Config{PageSize: 4096, Partitions: 8, Budget: pages.NewBudget(1 << 20), PartitionAt: 0.1}
			},
			check: func(t *testing.T, res *Result) {
				if len(res.Unpartitioned) == 0 || len(partitioned(res)) == 0 {
					t.Fatalf("%d unpartitioned and %d partitioned pages: the switch did not happen mid-input", len(res.Unpartitioned), len(partitioned(res)))
				}
			}},
		{name: "spill", n: 6000,
			cfg: func() Config {
				return Config{PageSize: 4096, Partitions: 8, Budget: pages.NewBudget(64 << 10), PartitionAt: 0.3,
					Spill: &SpillConfig{Array: fastArray(2)}}
			},
			check: func(t *testing.T, res *Result) {
				if !res.HasSpilled() {
					t.Fatal("nothing spilled")
				}
			}},
		{name: "in-memory-only-oom", n: 3000, oom: true,
			cfg: func() Config {
				return Config{PageSize: 4096, Budget: pages.NewBudget(32 << 10), Mode: ModeNeverPartition}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tuples, hashes := mixedTuples(tc.n)
			var res [2]*Result
			var stored [2]int
			for i := range res {
				cfg := tc.cfg()
				s := NewShared(cfg)
				b := s.NewBuffer()
				var err error
				if i == 0 {
					stored[i], err = reserveAll(b, tuples, hashes, 1024)
				} else {
					stored[i], err = storeAll(b, tuples, hashes)
				}
				if tc.oom != (err == ErrOutOfMemory) {
					t.Fatalf("err = %v (out of memory expected: %v)", err, tc.oom)
				}
				if err := b.Finish(); err != nil {
					t.Fatal(err)
				}
				if res[i], err = s.Finalize(); err != nil {
					t.Fatal(err)
				}
				if n := res[i].Counters[metrics.TuplesStored]; n != int64(stored[i]) {
					t.Fatalf("TuplesStored = %d, %d stored", n, stored[i])
				}
				if tc.check != nil {
					tc.check(t, res[i])
				}
				if cfg.Spill != nil {
					got := collectKeys(t, cfg.Spill.Array, res[i])
					checkAllKeys(t, got, tc.n, 0)
				}
			}
			got, want := res[0], res[1]
			if stored[0] != stored[1] {
				t.Fatalf("Reserve stored %d tuples, StoreTuple %d", stored[0], stored[1])
			}
			if tc.oom && stored[0] == tc.n {
				t.Fatal("the budget did not run out")
			}
			samePages(t, "unpartitioned", got.Unpartitioned, want.Unpartitioned)
			samePages(t, "partitioned", partitioned(got), partitioned(want))
			if got.Mask != want.Mask || len(got.Spilled) != len(want.Spilled) {
				t.Fatalf("mask %b over %d streams, want %b over %d", got.Mask, len(got.Spilled), want.Mask, len(want.Spilled))
			}
			for part := range got.Spilled {
				g, w := got.Spilled[part], want.Spilled[part]
				if len(g) != len(w) {
					t.Fatalf("partition %d: %d spilled slots, want %d", part, len(g), len(w))
				}
				for i := range g {
					if g[i].Off != w[i].Off || g[i].Len != w[i].Len || g[i].Scheme != w[i].Scheme {
						t.Fatalf("partition %d slot %d: %+v, want %+v", part, i, g[i], w[i])
					}
				}
			}
			if tc.oom {
				// Every tuple on a page is one of the input's, whole.
				for _, p := range got.Unpartitioned {
					for j := 0; j < p.Tuples(); j++ {
						if k := keyOf(p.Tuple(j)); !bytes.Equal(p.Tuple(j), tuples[k]) {
							t.Fatalf("tuple %d on a page is not whole after the out-of-memory panic", k)
						}
					}
				}
			}
		})
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
	if n := res.Counters[metrics.TuplesStored]; n != 10 {
		t.Fatalf("double Finish double-counted: %d tuples", n)
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

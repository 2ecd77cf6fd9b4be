package core

import (
	"context"
	"errors"
	"testing"

	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
)

// paritySpill spills ~640 KB of tuples with parity stripes of width K and
// returns the array and the finalized result.
func paritySpill(t *testing.T, devs, parity, n int) (*nvmesim.Array, *Result) {
	t.Helper()
	arr := fastArray(devs)
	s := NewShared(Config{
		PageSize: 4096, Partitions: 8,
		Budget: pages.NewBudget(64 << 10), PartitionAt: 0.3,
		Spill: &SpillConfig{Array: arr, Parity: parity},
	})
	b := s.NewBuffer()
	storeN(b, n, 32, 0)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasSpilled() {
		t.Fatal("test did not spill")
	}
	return arr, res
}

// collectVerified reads every spilled partition back with integrity armed
// and returns the keys plus the summed integrity counters.
func collectVerified(t *testing.T, arr *nvmesim.Array, res *Result) (map[uint64]int, vstats) {
	t.Helper()
	out := map[uint64]int{}
	var st vstats
	for _, p := range res.MemPages() {
		for i := 0; i < p.Tuples(); i++ {
			out[keyOf(p.Tuple(i))]++
		}
	}
	for part := 0; part < res.Partitions; part++ {
		if len(res.Spilled[part]) == 0 {
			continue
		}
		r := openPartition(t, nil, arr, part, res.Spilled[part], res.Stripes)
		pgs, err := readAll(r)
		if err != nil {
			t.Fatalf("reading partition %d: %v", part, err)
		}
		for _, p := range pgs {
			for i := 0; i < p.Tuples(); i++ {
				out[keyOf(p.Tuple(i))]++
			}
		}
		n := r.Counters()
		st.verified += n[metrics.SpillPagesVerified]
		st.checksumErrors += n[metrics.SpillChecksumErrors]
		st.reconstructions += n[metrics.SpillReconstructions]
		r.Release()
	}
	return out, st
}

func TestParitySpillRoundTrip(t *testing.T) {
	const n = 20000
	arr, res := paritySpill(t, 4, 2, n)
	if len(res.Stripes) == 0 {
		t.Fatal("parity spill recorded no stripe groups")
	}
	if res.Counters[metrics.SpillParityBytes] == 0 {
		t.Fatal("parity spill recorded no parity bytes")
	}
	for part := range res.Spilled {
		for _, sl := range res.Spilled[part] {
			if sl.Seq == 0 {
				t.Fatalf("partition %d has unframed slot %+v under parity", part, sl)
			}
		}
	}
	got, st := collectVerified(t, arr, res)
	checkAllKeys(t, got, n, 0)
	if st.verified == 0 {
		t.Fatal("no frames verified")
	}
	if st.checksumErrors != 0 || st.reconstructions != 0 {
		t.Fatalf("clean run saw faults: %+v", st)
	}
}

func TestStripeMembersOnDistinctDevices(t *testing.T) {
	_, res := paritySpill(t, 4, 2, 20000)
	for _, g := range res.Stripes {
		if g.Parity == 0 {
			t.Fatalf("group %+v has no parity", g)
		}
		seen := map[int]bool{}
		for _, m := range append(append([]nvmesim.Loc(nil), g.Data...), g.Parity) {
			if seen[m.Device()] {
				t.Fatalf("stripe group %+v reuses device %d", g, m.Device())
			}
			seen[m.Device()] = true
		}
	}
}

func TestCorruptionHealsFromParity(t *testing.T) {
	const n = 20000
	arr, res := paritySpill(t, 4, 2, n)
	// Every read from device 0 silently flips one bit. Blocks on device 0
	// must be rebuilt from their stripe survivors on devices 1-3.
	arr.SetFaultPlan(0, nvmesim.FaultPlan{Seed: 7, CorruptRate: 1.0})
	got, st := collectVerified(t, arr, res)
	checkAllKeys(t, got, n, 0)
	if st.checksumErrors == 0 {
		t.Fatal("corrupted reads were not detected")
	}
	if st.reconstructions == 0 {
		t.Fatal("no blocks were reconstructed")
	}
	if st.checksumErrors != st.reconstructions {
		t.Fatalf("checksum errors %d != reconstructions %d (some faults unhealed?)",
			st.checksumErrors, st.reconstructions)
	}
}

func TestDeadDeviceHealsFromParity(t *testing.T) {
	const n = 20000
	arr, res := paritySpill(t, 4, 2, n)
	arr.KillDevice(0)
	got, st := collectVerified(t, arr, res)
	checkAllKeys(t, got, n, 0)
	if st.reconstructions == 0 {
		t.Fatal("dead device triggered no reconstructions")
	}
}

func TestDoubleFaultIsStructuredError(t *testing.T) {
	arr, res := paritySpill(t, 4, 2, 20000)
	// Two dead devices exceed single-parity redundancy for any stripe that
	// spans both. The reader must fail with a structured error naming the
	// device and partition — never return wrong data.
	arr.KillDevice(0)
	arr.KillDevice(1)
	sawError := false
	for part := 0; part < res.Partitions; part++ {
		if len(res.Spilled[part]) == 0 {
			continue
		}
		r := openPartition(t, nil, arr, part, res.Spilled[part], res.Stripes)
		_, err := readAll(r)
		r.Release()
		if err == nil {
			continue
		}
		sawError = true
		var qe *QueryError
		if !errors.As(err, &qe) {
			t.Fatalf("double fault surfaced unstructured error: %v", err)
		}
		if qe.Op != "spill-read" || qe.Part != part || qe.Device < 0 {
			t.Fatalf("QueryError misses context: %+v", qe)
		}
	}
	if !sawError {
		t.Fatal("two dead devices produced no error")
	}
}

func TestSilentDoubleFaultIsStructuredError(t *testing.T) {
	// One device, so every stripe member shares it: corruption on every read
	// makes reconstruction itself read corrupt survivors, the rebuilt block
	// fails re-verification, and the fault must surface structured.
	arr, res := paritySpill(t, 1, 2, 20000)
	arr.SetFaultPlan(0, nvmesim.FaultPlan{Seed: 11, CorruptRate: 1.0})
	sawError := false
	for part := 0; part < res.Partitions; part++ {
		if len(res.Spilled[part]) == 0 {
			continue
		}
		r := openPartition(t, nil, arr, part, res.Spilled[part], res.Stripes)
		_, err := readAll(r)
		r.Release()
		if err == nil {
			continue
		}
		sawError = true
		var qe *QueryError
		if !errors.As(err, &qe) {
			t.Fatalf("silent double fault surfaced unstructured error: %v", err)
		}
		if qe.Part != part {
			t.Fatalf("QueryError names partition %d, want %d", qe.Part, part)
		}
	}
	if !sawError {
		t.Fatal("unhealable corruption produced no error")
	}
}

func TestSchedulerHealsCorruption(t *testing.T) {
	const n = 20000
	arr, res := paritySpill(t, 4, 2, n)
	arr.SetFaultPlan(0, nvmesim.FaultPlan{Seed: 7, CorruptRate: 1.0})
	var streams []int
	for part := 0; part < res.Partitions; part++ {
		if len(res.Spilled[part]) > 0 {
			streams = append(streams, part)
		}
	}
	sched := readback(context.Background(), arr, pages.NewBudget(1<<20), 0, res, streams)
	defer sched.Close()
	got := map[uint64]int{}
	for _, p := range res.MemPages() {
		for i := 0; i < p.Tuples(); i++ {
			got[keyOf(p.Tuple(i))]++
		}
	}
	var st vstats
	for i := range streams {
		cur := sched.Open(i, 0)
		for {
			p, err := cur.Next()
			if err != nil {
				t.Fatalf("partition %d: %v", streams[i], err)
			}
			if p == nil {
				break
			}
			for j := 0; j < p.Tuples(); j++ {
				got[keyOf(p.Tuple(j))]++
			}
		}
		n := cur.Counters()
		st.verified += n[metrics.SpillPagesVerified]
		st.checksumErrors += n[metrics.SpillChecksumErrors]
		st.reconstructions += n[metrics.SpillReconstructions]
		cur.Release()
	}
	checkAllKeys(t, got, n, 0)
	if st.verified == 0 || st.reconstructions == 0 {
		t.Fatalf("scheduler integrity counters empty: %+v", st)
	}
}

func TestSchedulerDoubleFaultIsStructuredError(t *testing.T) {
	arr, res := paritySpill(t, 4, 2, 20000)
	arr.KillDevice(0)
	arr.KillDevice(1)
	var streams []int
	for part := 0; part < res.Partitions; part++ {
		if len(res.Spilled[part]) > 0 {
			streams = append(streams, part)
		}
	}
	sched := readback(context.Background(), arr, pages.NewBudget(1<<20), 0, res, streams)
	defer sched.Close()
	sawError := false
	for i := range streams {
		cur := sched.Open(i, 0)
		var err error
		for {
			var p *pages.Page
			p, err = cur.Next()
			if err != nil || p == nil {
				break
			}
		}
		cur.Release()
		if err == nil {
			continue
		}
		sawError = true
		var qe *QueryError
		if !errors.As(err, &qe) {
			t.Fatalf("double fault surfaced unstructured error: %v", err)
		}
		if qe.Op != "spill-read" || qe.Device < 0 {
			t.Fatalf("QueryError misses context: %+v", qe)
		}
	}
	if !sawError {
		t.Fatal("two dead devices produced no error through the scheduler")
	}
}

// TestMisdirectedReadAcrossOperatorsIsCaught: two operators on one array each
// spill one page of partition 0, the first one's data block just below the
// second one's on device 0. A stale read of the second operator's block
// serves the first one's. Frame sequence numbers are unique in the process,
// not per operator, so that frame cannot pass for the expected one: the read
// is caught, rebuilt from parity, and yields the second operator's tuples.
func TestMisdirectedReadAcrossOperatorsIsCaught(t *testing.T) {
	arr := fastArray(2)
	spillOne := func(first uint64) *Result {
		s := NewShared(Config{
			PageSize: 4096, Partitions: 2, Mode: ModeAlwaysPartition,
			Spill: &SpillConfig{Array: arr, Parity: 1},
		})
		s.Mask().MarkSpilled(0)
		b := s.NewBuffer()
		// Hash 0 is partition 0; Finish spills the one active page.
		for k := first; k < first+10; k++ {
			b.StoreTuple(tup(k, 32), 0)
		}
		if err := b.Finish(); err != nil {
			t.Fatal(err)
		}
		res, err := s.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Spilled[0]) != 1 || len(res.Stripes) != 1 {
			t.Fatalf("spilled %d slots in %d stripes, want one of each", len(res.Spilled[0]), len(res.Stripes))
		}
		return res
	}
	a, b := spillOne(0), spillOne(100)
	la, lb := a.Spilled[0][0].Loc, b.Spilled[0][0].Loc
	if la.Device() != 0 || lb.Device() != 0 || la.Offset() >= lb.Offset() {
		t.Fatalf("data blocks at %v and %v, want both on device 0, the first below", la, lb)
	}
	// The next request on device 0 is the read of b's block: it serves a's.
	arr.SetFaultPlan(0, nvmesim.FaultPlan{Script: map[int64]nvmesim.FaultKind{1: nvmesim.FaultStale}})
	r := openPartition(t, nil, arr, 0, b.Spilled[0], b.Stripes)
	pgs, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if arr.FaultStats(0).StaleReads != 1 {
		t.Fatal("the stale read was not injected")
	}
	var keys []uint64
	for _, p := range pgs {
		keys = pageKeys(keys, p)
	}
	if len(keys) != 10 || keys[0] != 100 {
		t.Fatalf("read keys %v, want 100..109", keys)
	}
	if n := r.Counters(); n[metrics.SpillChecksumErrors] != 1 || n[metrics.SpillReconstructions] != 1 {
		t.Fatalf("%d checksum errors and %d reconstructions, want one of each",
			n[metrics.SpillChecksumErrors], n[metrics.SpillReconstructions])
	}
	r.Release()
}

func TestParityDegradesOnParityWriteFailure(t *testing.T) {
	// A clean parity run and one where parity writes may fail must both
	// produce correct data; the failed-parity groups simply lose redundancy.
	arr := fastArray(2)
	s := NewShared(Config{
		PageSize: 4096, Partitions: 8,
		Budget: pages.NewBudget(64 << 10), PartitionAt: 0.3,
		Spill: &SpillConfig{Array: arr, Parity: 2},
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
	got, _ := collectVerified(t, arr, res)
	checkAllKeys(t, got, n, 0)
}

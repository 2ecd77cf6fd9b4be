package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/uring"
)

// spillOnePartition materializes tuples so that everything spills, and
// returns the array, one spilled partition and its slots.
func spillOnePartition(t *testing.T, compress bool) (*nvmesim.Array, int, []SpilledSlot) {
	t.Helper()
	arr := fastArray(1)
	s := NewShared(Config{
		PageSize: 4096, Partitions: 4, Budget: pages.NewBudget(32 << 10), Mode: ModeSpillAll,
		Spill: &SpillConfig{Array: arr, Compress: compress},
	})
	b := s.NewBuffer()
	storeN(b, 5000, 32, 0)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < res.Partitions; p++ {
		if len(res.Spilled[p]) > 0 {
			return arr, p, res.Spilled[p]
		}
	}
	t.Fatal("nothing spilled")
	return nil, 0, nil
}

// openPartition opens slots for readback through a one-stream
// PartitionScheduler that is closed when the test ends. part is the
// partition their frames verify against; stripes is the result's parity
// directory (nil = nothing can be rebuilt).
func openPartition(t *testing.T, ctx context.Context, arr *nvmesim.Array, part int, slots []SpilledSlot, stripes []*StripeGroup) *PartitionCursor {
	t.Helper()
	res := &Result{Spilled: make([][]SpilledSlot, part+1), Stripes: stripes}
	res.Spilled[part] = slots
	sched := readback(ctx, arr, nil, 4, res, []int{part})
	t.Cleanup(sched.Close)
	return sched.Open(0, 0)
}

// readAll drains a cursor into a slice.
func readAll(cur *PartitionCursor) ([]*pages.Page, error) {
	var out []*pages.Page
	for {
		p, err := cur.Next()
		if err != nil {
			return out, err
		}
		if p == nil {
			return out, nil
		}
		out = append(out, p)
	}
}

func TestPartitionReaderEmpty(t *testing.T) {
	arr := fastArray(1)
	r := openPartition(t, nil, arr, 0, nil, nil)
	defer r.Release()
	p, err := r.Next()
	if err != nil || p != nil {
		t.Fatalf("empty reader: %v %v", p, err)
	}
	// Next after end stays at end.
	if p, err := r.Next(); err != nil || p != nil {
		t.Fatal("reader did not stay at end")
	}
}

func TestPartitionReaderReadError(t *testing.T) {
	arr, part, slots := spillOnePartition(t, false)
	arr.SetFaultPlan(0, nvmesim.FaultPlan{ReadErrRate: 1})
	r := openPartition(t, nil, arr, part, slots, nil)
	defer r.Release()
	// Every read fails transiently, so this is the retry budget running out:
	// a structured error naming the device, and sticky.
	_, err := r.Next()
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v (%T), want *QueryError", err, err)
	}
	if qe.Device != 0 || !nvmesim.IsTransient(err) {
		t.Fatalf("err = %v, want the transient cause on device 0", err)
	}
	if _, err2 := r.Next(); err2 != err {
		t.Fatalf("reader forgot its error: %v", err2)
	}
}

func TestPartitionReaderCorruptSlot(t *testing.T) {
	arr, part, slots := spillOnePartition(t, true)
	bad := make([]SpilledSlot, len(slots))
	copy(bad, slots)
	// Slot pointing past its block.
	bad[0].Off = uint32(bad[0].Loc.Size())
	bad[0].Len = 64
	r := openPartition(t, nil, arr, part, bad, nil)
	defer r.Release()
	_, err := readAll(r)
	wantBlockError(t, err, bad[0].Loc)
}

func TestPartitionReaderUnknownScheme(t *testing.T) {
	arr, part, slots := spillOnePartition(t, true)
	bad := make([]SpilledSlot, len(slots))
	copy(bad, slots)
	bad[0].Scheme = codec.ID(250)
	r := openPartition(t, nil, arr, part, bad, nil)
	defer r.Release()
	_, err := readAll(r)
	wantBlockError(t, err, bad[0].Loc)
}

// wantBlockError fails unless err is the structured readback error of the
// block at loc.
func wantBlockError(t *testing.T, err error, loc nvmesim.Loc) {
	t.Helper()
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Op != "spill-read" || qe.Device != loc.Device() {
		t.Fatalf("err = %v, want a spill-read *QueryError on device %d", err, loc.Device())
	}
}

func TestPartitionReaderBytesRead(t *testing.T) {
	arr, part, slots := spillOnePartition(t, false)
	r := openPartition(t, nil, arr, part, slots, nil)
	pgs, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Counters()[metrics.SpillReadBytes]; len(pgs) == 0 || n == 0 {
		t.Fatalf("pages=%d bytesRead=%d", len(pgs), n)
	}
	// The decoded pages alias recycler-backed buffers until Release hands
	// every one of them back.
	if blocks, _ := ownedBufs(r.it); blocks == 0 {
		t.Fatal("readback tracked no recycler-backed buffers")
	}
	r.Release()
	if blocks, decoded := ownedBufs(r.it); blocks+decoded != 0 {
		t.Fatalf("Release kept %d block and %d decoded buffers", blocks, decoded)
	}
}

// ownedBufs counts the recycler-backed buffers a work item holds: block read
// buffers, and the buffers compressed blocks were decoded into.
func ownedBufs(it *schedItem) (blocks, decoded int) {
	for _, g := range it.groups {
		if g.buf != nil {
			blocks++
		}
		if g.owned != nil {
			decoded++
		}
	}
	return blocks, decoded
}

func TestUringDepthAtSubmit(t *testing.T) {
	clk := nvmesim.NewVirtualClock(time.Unix(0, 0))
	arr := nvmesim.New(1, nvmesim.DeviceSpec{ReadBandwidth: 1e6, WriteBandwidth: 1e6, Latency: time.Millisecond}, clk)
	ring := uring.New(arr)
	for i := 0; i < 3; i++ {
		ring.QueueWrite(make([]byte, 512), uint64(i))
	}
	ring.Submit()
	comps := ring.WaitAll(nil)
	depths := map[int]bool{}
	for _, c := range comps {
		depths[c.DepthAtSubmit] = true
	}
	// Three requests submitted in one batch: depths 1, 2, 3.
	if !depths[1] || !depths[2] || !depths[3] {
		t.Fatalf("unexpected submit depths: %v", depths)
	}
}

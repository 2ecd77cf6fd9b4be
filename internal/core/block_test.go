package core_test

import (
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/tpch"
)

// TestBlockCompressionBeatsPageCompression: TPC-H lineitem tuples spilled on
// 4 KiB pages with the regulator pinned at LZ4. The writer compresses each
// staging block of 16 pages as one unit, so it writes at most 0.9× what the
// same pages take compressed — and framed — one page at a time.
func TestBlockCompressionBeatsPageCompression(t *testing.T) {
	li := (&tpch.Gen{SF: 0.01}).Table(tpch.Lineitem)
	batch := &data.Batch{Schema: li.Schema()}
	for i := range li.Schema().Cols {
		batch.Cols = append(batch.Cols, *li.Column(i))
	}
	batch.SetLen(int(li.Rows()))
	rc := data.NewRowCodec(li.Schema().Types())

	arr := nvmesim.New(2, nvmesim.DeviceSpec{
		ReadBandwidth: 4e9, WriteBandwidth: 2e9, Latency: 20 * time.Microsecond,
	}, nvmesim.RealClock{})
	s := core.NewShared(core.Config{
		PageSize: 4096, Partitions: 4, Budget: pages.NewBudget(32 << 10), Mode: core.ModeSpillAll,
		Spill: &core.SpillConfig{Array: arr, Compress: true, RunN: 1 << 30},
	})
	b := s.NewBuffer()
	b.Regulator().PinScheme(codec.LZ4Default)
	for r := 0; r < 10000; r++ {
		tuple := make([]byte, rc.Size(batch, r))
		rc.Encode(tuple, batch, r)
		b.StoreTuple(tuple, data.HashRow(batch, []int{0}, r))
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	var work []core.PartitionWork
	for part, slots := range res.Spilled {
		if len(slots) > 0 {
			work = append(work, core.PartitionWork{Part: part, Slots: slots})
		}
	}
	sched := core.NewPartitionScheduler(nil, arr, work, 0, nil)
	defer sched.Close()
	lz4 := codec.ByID(codec.LZ4Default)
	perPage, spilled := 0, 0
	for i := range work {
		cur := sched.Open(i)
		for {
			p, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if p == nil {
				break
			}
			perPage += pages.FrameSize + len(lz4.Compress(nil, p.Bytes()))
			spilled++
		}
		cur.Release()
	}
	if spilled < 100 || int64(spilled) != res.SpilledPages {
		t.Fatalf("read back %d of %d spilled pages; want all, and at least 100", spilled, res.SpilledPages)
	}
	written := res.Counters[metrics.WrittenBytes]
	if float64(written) > 0.9*float64(perPage) {
		t.Fatalf("wrote %d bytes; the same %d pages compressed one at a time take %d (ratio %.3f, want ≤ 0.9)",
			written, spilled, perPage, float64(written)/float64(perPage))
	}
	t.Logf("%d pages: %d bytes as blocks, %d as pages (%.3f)", spilled, written, perPage, float64(written)/float64(perPage))
}

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
		Spill: &core.SpillConfig{Array: arr, Compress: true},
	})
	b := s.NewBuffer()
	b.Regulator().PinScheme(codec.LZ4Default)
	for r := 0; r < 10000; r++ {
		tuple := encodeRow(rc, batch, r)
		b.StoreTuple(tuple, data.HashRow(batch, []int{0}, r))
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	var streams []int
	for part, slots := range res.Spilled {
		if len(slots) > 0 {
			streams = append(streams, part)
		}
	}
	sched := core.NewPartitionScheduler(nil, &core.SpillConfig{Array: arr}, nil, 0, []*core.Result{res}, streams, nil)
	defer sched.Close()
	lz4 := codec.ByID(codec.LZ4Default)
	perPage, spilled := 0, 0
	for i := range streams {
		cur := sched.Open(i, 0)
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
	// Every page was written at the pinned level, lz4's on the scale.
	if lz4 := res.Counters[metrics.SpilledPages+3]; spilled < 100 || int64(spilled) != lz4 {
		t.Fatalf("read back %d of %d spilled pages; want all, and at least 100", spilled, lz4)
	}
	written := res.Counters[metrics.WrittenBytes]
	if float64(written) > 0.9*float64(perPage) {
		t.Fatalf("wrote %d bytes; the same %d pages compressed one at a time take %d (ratio %.3f, want ≤ 0.9)",
			written, spilled, perPage, float64(written)/float64(perPage))
	}
	t.Logf("%d pages: %d bytes as blocks, %d as pages (%.3f)", spilled, written, perPage, float64(written)/float64(perPage))
}

// TestDefaultScaleShrinksOutput: the regulator climbs DefaultScale to trade
// CPU for I/O, which pays only if no step writes more bytes than the one
// below it. Staging blocks of TPC-H lineitem tuples on 4 KiB pages, as the
// spill writer stages them, take no more bytes at any scheme from lz4-a8 to
// deflate-9 than at the scheme before it, nor at lz4-a8 than raw.
func TestDefaultScaleShrinksOutput(t *testing.T) {
	li := (&tpch.Gen{SF: 0.01}).Table(tpch.Lineitem)
	batch := &data.Batch{Schema: li.Schema()}
	for i := range li.Schema().Cols {
		batch.Cols = append(batch.Cols, *li.Column(i))
	}
	batch.SetLen(int(li.Rows()))
	rc := data.NewRowCodec(li.Schema().Types())

	var blocks [][]byte
	var block []byte
	pg := pages.New(4096)
	for r := 0; r < int(li.Rows()) && len(blocks) < 8; r++ {
		tuple := encodeRow(rc, batch, r)
		if _, ok := pg.Append(tuple); ok {
			continue
		}
		block = append(block, pg.Seal()...)
		if len(block) >= 64<<10 {
			blocks = append(blocks, block)
			block = nil
		}
		pg = pages.New(4096)
		pg.Append(tuple)
	}
	if len(blocks) < 8 {
		t.Fatalf("only %d staging blocks of lineitem", len(blocks))
	}
	prev, prevName := 0, "raw"
	for _, b := range blocks {
		prev += len(b)
	}
	if core.DefaultScale[0] != codec.None {
		t.Fatalf("the scale starts at %v, not raw", core.DefaultScale[0])
	}
	for _, id := range core.DefaultScale[1:] {
		c := codec.ByID(id)
		size := 0
		for _, b := range blocks {
			size += len(c.Compress(nil, b))
		}
		t.Logf("%-9s %7d bytes", c.Name(), size)
		if size > prev {
			t.Errorf("%s writes %d bytes, more than the %d of %s below it", c.Name(), size, prev, prevName)
		}
		prev, prevName = size, c.Name()
	}
}

// encodeRow returns row r of b encoded on its own.
func encodeRow(rc *data.RowCodec, b *data.Batch, r int) []byte {
	sel := []int32{int32(r)}
	dst := [][]byte{make([]byte, rc.SizeAll(b, sel, nil)[0])}
	rc.EncodeAll(dst, b, sel)
	return dst[0]
}

package core

import (
	"testing"

	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
)

// TestSpillFramesOneBlock: with 4 KiB pages and the regulator pinned at LZ4,
// a staging block is one frame — every slot of a block carries the block's
// one Seq and one Scheme — and the writer issues one write per frame.
// Readback verifies one frame per block yet still counts pages.
func TestSpillFramesOneBlock(t *testing.T) {
	const n = 20000
	arr := fastArray(2)
	s := NewShared(Config{
		PageSize: 4096, Partitions: 4, Budget: pages.NewBudget(32 << 10), Mode: ModeSpillAll,
		Spill: &SpillConfig{Array: arr, Compress: true},
	})
	b := s.NewBuffer()
	b.reg.PinScheme(codec.LZ4Default)
	storeN(b, n, 32, 0)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	var writes int64
	for _, d := range arr.PerDevice() {
		writes += d.Writes
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	type frame struct {
		seq    uint32
		scheme codec.ID
	}
	frames := map[nvmesim.Loc]frame{}
	seqs := map[uint32]bool{}
	for _, slots := range res.Spilled {
		for _, sl := range slots {
			f := frame{sl.Seq, sl.Scheme}
			if prev, ok := frames[sl.Loc]; ok && prev != f {
				t.Fatalf("block %v holds slots of frames %+v and %+v", sl.Loc, prev, f)
			} else if !ok && seqs[sl.Seq] {
				t.Fatalf("seq %d frames two blocks", sl.Seq)
			}
			if sl.Scheme != codec.LZ4Default {
				t.Fatalf("slot %+v not LZ4-compressed under a pinned regulator", sl)
			}
			frames[sl.Loc] = f
			seqs[sl.Seq] = true
		}
	}
	if int64(len(frames)) != writes {
		t.Fatalf("%d frames, %d writes; want one write per frame", len(frames), writes)
	}
	if res.SpilledPages < 8*int64(len(frames)) {
		t.Fatalf("%d pages in %d blocks; 4 KiB pages should fill 64 KiB staging blocks", res.SpilledPages, len(frames))
	}
	for part, slots := range res.Spilled {
		if len(slots) == 0 {
			continue
		}
		r := openPartition(t, nil, arr, part, slots, nil)
		if _, err := readAll(r); err != nil {
			t.Fatal(err)
		}
		if v := r.Counters()[metrics.SpillPagesVerified]; v != int64(len(slots)) {
			t.Fatalf("partition %d: %d pages verified, want %d", part, v, len(slots))
		}
		r.Release()
	}
	checkAllKeys(t, collectKeys(t, arr, res), n, 0)
}

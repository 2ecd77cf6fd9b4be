//go:build !race

// Allocation regression tests for compression and decompression. Excluded
// under -race: the race runtime drops pooled objects at random, so the pools
// that keep coding allocation-free cannot be measured there.

package codec

import (
	"bytes"
	"testing"
)

// pooledIDs are the codecs whose coders keep their state in pools: LZ4, every
// DEFLATE level, and BWT, whose entropy stage is the DEFLATE encoder.
var pooledIDs = []ID{LZ4Default, Deflate1, Deflate3, Deflate6, Deflate9, BWT}

// allocRuns is how many calls an allocation count averages over; BWT's
// suffix sort is slow, so it gets fewer.
func allocRuns(id ID) int {
	if id == BWT {
		return 3
	}
	return 20
}

// TestDecompressAllocs: decompressing a block into a buffer with room for it
// allocates nothing. The DEFLATE decoder's tables live in a pooled state and
// it inflates straight into dst, with no window to copy out of.
func TestDecompressAllocs(t *testing.T) {
	block := testInputs()["tuples"]
	for _, id := range pooledIDs {
		c := ByID(id)
		comp := c.Compress(nil, block)
		dst := make([]byte, 0, len(block))
		out, err := c.Decompress(dst, comp) // fill the decoder pool
		if err != nil || !bytes.Equal(out, block) {
			t.Fatalf("%s: round trip failed: %v", c.Name(), err)
		}
		if n := testing.AllocsPerRun(allocRuns(id), func() { c.Decompress(dst, comp) }); n != 0 {
			t.Errorf("%s: %.1f allocations per decompressed block, want 0", c.Name(), n)
		}
	}
}

// TestCompressAllocs: compressing a staging block (60 KiB of tuples) into a
// dst with room for the output allocates nothing. The encoders' hash tables,
// token buffers and Huffman scratch are pooled and they write straight into
// dst, with no intermediate buffer to grow and copy out.
func TestCompressAllocs(t *testing.T) {
	block := testInputs()["tuples"]
	for _, id := range pooledIDs {
		c := ByID(id)
		dst := make([]byte, 0, 2*len(block))
		c.Compress(dst, block) // fill the encoder pool
		if n := testing.AllocsPerRun(allocRuns(id), func() { c.Compress(dst, block) }); n != 0 {
			t.Errorf("%s: %.1f allocations per compressed block, want 0", c.Name(), n)
		}
	}
}

//go:build !race

// Allocation regression tests for compression and decompression. Excluded
// under -race: the race runtime drops pooled objects at random, so the pools
// that keep coding allocation-free cannot be measured there.

package codec

import (
	"bytes"
	"runtime"
	"testing"
)

// TestDecompressAllocs: decompressing a page into a buffer with room for it
// builds no decoder and no scratch buffer per page. LZ4 allocates nothing.
// DEFLATE's decoders are pooled and inflate straight into dst, so a page costs
// only the Huffman link tables compress/flate builds for each dynamic block: a
// few KiB, far below the 74 KiB of a reader and a 32 KiB buffer built per page.
func TestDecompressAllocs(t *testing.T) {
	page := testInputs()["tuples"]
	for _, id := range []ID{LZ4Default, Deflate1, Deflate6} {
		c := ByID(id)
		comp := c.Compress(nil, page)
		dst := make([]byte, 0, len(page))
		out, err := c.Decompress(dst, comp)
		if err != nil || !bytes.Equal(out, page) {
			t.Fatalf("%s: round trip failed: %v", c.Name(), err)
		}
		const pages = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pages; i++ {
			out, _ = c.Decompress(dst, comp)
		}
		runtime.ReadMemStats(&after)
		perPage := (after.TotalAlloc - before.TotalAlloc) / pages
		limit := uint64(8 << 10)
		if id == LZ4Default {
			limit = 0
		}
		if perPage > limit {
			t.Errorf("%s: %d bytes allocated per decompressed page, want ≤ %d", c.Name(), perPage, limit)
		}
	}
}

// TestCompressAllocs: compressing a staging block (60 KiB of tuples) into a
// dst with room for the output allocates nothing. DEFLATE's encoders are pooled and write
// straight into dst, with no intermediate buffer to grow and copy out.
func TestCompressAllocs(t *testing.T) {
	block := testInputs()["tuples"]
	for _, id := range []ID{LZ4Default, Deflate1, Deflate6} {
		c := ByID(id)
		dst := make([]byte, 0, 2*len(block))
		c.Compress(dst, block) // fill the encoder pool
		if n := testing.AllocsPerRun(20, func() { c.Compress(dst, block) }); n != 0 {
			t.Errorf("%s: %.1f allocations per compressed block, want 0", c.Name(), n)
		}
	}
}

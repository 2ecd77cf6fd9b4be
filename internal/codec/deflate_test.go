package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// compress/flate is the oracle for the DEFLATE codec: every level's output
// must decode through it, and its output at every level must decode through
// ours.

var deflateIDs = []ID{Deflate1, Deflate3, Deflate6, Deflate9}

// oracleLevels are compress/flate's Huffman-only, stored, fastest, default
// and best levels: between them every block type and both code kinds.
var oracleLevels = []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, 6, flate.BestCompression}

func oracleInflate(raw []byte) ([]byte, error) {
	return io.ReadAll(flate.NewReader(bytes.NewReader(raw)))
}

func oracleDeflate(t testing.TB, in []byte, level int) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(in); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkAgainstOracle round-trips in through every level both ways.
func checkAgainstOracle(t *testing.T, in []byte) {
	t.Helper()
	for _, id := range deflateIDs {
		c := ByID(id)
		frame := c.Compress(nil, in)
		want, n := binary.Uvarint(frame)
		if n <= 0 || want != uint64(len(in)) {
			t.Fatalf("%s: frame header says %d bytes, input has %d", c.Name(), want, len(in))
		}
		if got, err := oracleInflate(frame[n:]); err != nil || !bytes.Equal(got, in) {
			t.Fatalf("%s: compress/flate decodes %d bytes of %d (%v)", c.Name(), len(got), len(in), err)
		}
		if got, err := c.Decompress(nil, frame); err != nil || !bytes.Equal(got, in) {
			t.Fatalf("%s: own round trip gives %d bytes of %d (%v)", c.Name(), len(got), len(in), err)
		}
	}
	for _, level := range oracleLevels {
		raw := oracleDeflate(t, in, level)
		if got, err := inflate(nil, raw, uint64(len(in))); err != nil || !bytes.Equal(got, in) {
			t.Fatalf("compress/flate level %d: inflate gives %d bytes of %d (%v)", level, len(got), len(in), err)
		}
	}
}

func TestDeflateMatchesOracle(t *testing.T) {
	for name, in := range testInputs() {
		t.Run(name, func(t *testing.T) { checkAgainstOracle(t, in) })
	}
}

// TestDeflateEdgeCases: the smallest inputs, incompressible input on each
// side of a stored block's 65535-byte limit, and a long run of one byte,
// which is all distance-1 matches overlapping their own output.
func TestDeflateEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 65535, 65536, 65537} {
		in := make([]byte, n)
		rng.Read(in)
		checkAgainstOracle(t, in)
		stored := n + 5*max(1, (n+maxStored-1)/maxStored)
		for _, id := range deflateIDs {
			frame := ByID(id).Compress(nil, in)
			if raw := len(frame) - len(binary.AppendUvarint(nil, uint64(n))); raw > stored {
				t.Errorf("%s: %d random bytes take %d, more than %d as stored blocks", ByID(id).Name(), n, raw, stored)
			}
		}
	}
	run := bytes.Repeat([]byte{'x'}, 100<<10)
	checkAgainstOracle(t, run)
	for _, id := range deflateIDs {
		// 258 bytes a match, in two bits once the codes settle.
		if n := len(ByID(id).Compress(nil, run)); n > 200 {
			t.Errorf("%s: 100 KiB of one byte takes %d bytes", ByID(id).Name(), n)
		}
	}
}

// FuzzDeflate checks the codec against compress/flate on arbitrary input
// (see checkAgainstOracle), and that arbitrary bytes given to Decompress
// neither panic nor size an allocation past what maxInflateRatio allows.
// Tier-1 runs the seed corpus; make fuzz-codec mutates it.
func FuzzDeflate(f *testing.F) {
	inputs := testInputs()
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		// Short seeds keep mutation and minimization fast; TestDeflateEdgeCases
		// covers the long inputs.
		in := inputs[name]
		f.Add(in[:min(len(in), 512)])
	}
	// Frames of ours and raw streams of the oracle's, for the mutator to
	// corrupt.
	text := []byte("spilly spills pages to nvme, spilly spills pages to nvme")
	for _, id := range deflateIDs {
		f.Add(ByID(id).Compress(nil, text))
	}
	for _, level := range oracleLevels {
		f.Add(oracleDeflate(f, text, level))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkAgainstOracle(t, in)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := ByID(Deflate1).Decompress(nil, in)
		runtime.ReadMemStats(&after)
		// The slack covers a decoder state the pool has to build.
		if grown, bound := after.TotalAlloc-before.TotalAlloc, uint64(len(in))*maxInflateRatio+64<<10; grown > bound {
			t.Fatalf("Decompress of %d bytes allocated %d bytes, bound %d", len(in), grown, bound)
		}
		if err == nil {
			if want, _ := binary.Uvarint(in); want != uint64(len(out)) {
				t.Fatalf("Decompress returned %d bytes, the frame says %d", len(out), want)
			}
		}
		// The same bytes as a raw stream: whatever compress/flate decodes
		// to completion, inflate decodes to the same bytes.
		if want, err := oracleInflate(in); err == nil {
			if got, err := inflate(nil, in, uint64(len(want))); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("compress/flate decodes %d bytes, inflate %d (%v)", len(want), len(got), err)
			}
		}
	})
}

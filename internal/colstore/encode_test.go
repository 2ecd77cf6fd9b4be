package colstore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/spilly-db/spilly/internal/data"
)

// chunkCase is one column chunk and the scheme the encoder must pick for it.
type chunkCase struct {
	name   string
	col    data.Column
	scheme byte
}

func intCase(name string, scheme byte, vals ...int64) chunkCase {
	return chunkCase{name, data.Column{Type: data.Int64, I: vals}, scheme}
}

func floatCase(name string, scheme byte, vals ...float64) chunkCase {
	return chunkCase{name, data.Column{Type: data.Float64, F: vals}, scheme}
}

func strCase(name string, scheme byte, vals ...string) chunkCase {
	return chunkCase{name, data.Column{Type: data.String, S: vals}, scheme}
}

func gen[T any](n int, f func(i int) T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// chunkCases covers every scheme and the values that are easy to lose:
// floats that differ only in their bits, the ends of int64, empty and
// one-row chunks.
func chunkCases() []chunkCase {
	rng := rand.New(rand.NewSource(7))
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff8000000000000 | payload) }
	words := strings.Fields("the quick brown fox jumps over the lazy dog while furious packages haggle blithely")
	return []chunkCase{
		intCase("int/empty", encRawInt),
		intCase("int/one", encDeltaInt, 42),
		// The step from MinInt64 to MaxInt64 wraps to -1: a delta of one byte.
		intCase("int/minmax", encDeltaInt, gen(64, func(i int) int64 {
			return []int64{math.MinInt64, math.MaxInt64, 0, -1}[i%4]
		})...),
		intCase("int/raw-random", encRawInt, gen(1000, func(int) int64 { return int64(rng.Uint64()) })...),
		intCase("int/constant", encRLEInt, gen(1000, func(int) int64 { return -7 })...),
		intCase("int/for", encFORInt, gen(1000, func(int) int64 { return 1_000_000 + rng.Int63n(5000) })...),
		intCase("int/for-negative-base", encFORInt, gen(1000, func(int) int64 { return -1000 + rng.Int63n(100) })...),
		intCase("int/for-near-min", encFORInt, gen(1000, func(int) int64 { return math.MinInt64 + rng.Int63n(9) })...),
		intCase("int/for-56-bits", encFORInt, gen(1000, func(int) int64 { return rng.Int63n(1 << 56) })...),
		intCase("int/raw-57-bits", encRawInt, gen(1000, func(i int) int64 { return int64(i%2) << 56 })...),
		intCase("int/rle", encRLEInt, gen(4000, func(i int) int64 { return int64(i/40) * 1_000_003 })...),
		intCase("int/delta", encDeltaInt, gen(4000, func(i int) int64 { return int64(i) * 3 })...),
		intCase("int/delta-negative", encDeltaInt, gen(4000, func(i int) int64 { return -int64(i) * 5 })...),

		floatCase("float/empty", encRawFloat),
		floatCase("float/one", encRawFloat, 1.5),
		floatCase("float/specials", encRawFloat, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			nan(0), nan(1), nan(0xdead), -nan(5), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -math.MaxFloat64),
		floatCase("float/raw-three-decimals", encRawFloat, gen(1000, func(i int) float64 { return float64(i*7919%100000) / 1000 })...),
		floatCase("float/raw-random", encRawFloat, gen(1000, func(int) float64 { return rng.NormFloat64() })...),
		floatCase("float/rle-one-distinct", encRLEFloat, gen(1000, func(int) float64 { return 0.07 })...),
		floatCase("float/rle-zeros", encRLEFloat, gen(1000, func(i int) float64 { return math.Copysign(0, float64(500-i)) })...),
		floatCase("float/rle-nans", encRLEFloat, gen(1000, func(i int) float64 { return nan(uint64(i / 100)) })...),
		floatCase("float/dict", encDictFloat, gen(1000, func(int) float64 { return float64(rng.Intn(11)) / 100 })...),
		floatCase("float/dict-specials", encDictFloat, gen(1000, func(int) float64 {
			return []float64{0, math.Copysign(0, -1), nan(0), nan(9), math.Inf(-1), 1e-310}[rng.Intn(6)]
		})...),
		floatCase("float/dict-256", encDictFloat, gen(4000, func(i int) float64 { return float64(i%256) * 1.1 })...),
		floatCase("float/decimal-whole", encDecimalFloat, gen(1000, func(int) float64 { return float64(rng.Intn(100000)) })...),
		floatCase("float/decimal-dimes", encDecimalFloat, gen(1000, func(int) float64 { return float64(rng.Intn(100000)) / 10 })...),
		floatCase("float/decimal-cents", encDecimalFloat, gen(1000, func(int) float64 { return float64(rng.Intn(2_000_000)-1_000_000) / 100 })...),
		// Products of a quantity and a price in cents are an ulp off the
		// nearest cent about one time in five (TPC-H l_extendedprice).
		floatCase("float/decimal-products", encDecimalFloat, gen(1000, func(int) float64 {
			return float64(1+rng.Intn(50)) * (float64(90000+rng.Intn(20000)) / 100)
		})...),
		floatCase("float/decimal-all-distinct", encDecimalFloat, gen(1000, func(i int) float64 { return float64(i) / 100 })...),

		strCase("str/empty", encRawStr),
		strCase("str/one", encRawStr, "x"),
		strCase("str/raw", encRawStr, gen(500, func(i int) string { return fmt.Sprintf("%x", rng.Uint64()) })...),
		strCase("str/raw-empties", encRawStr, gen(100, func(i int) string { return strings.Repeat("é", i%3) + fmt.Sprint(i) })...),
		strCase("str/dict", encDictStr, gen(1000, func(int) string { return []string{"AIR", "RAIL", "", "TRUCK"}[rng.Intn(4)] })...),
		strCase("str/dict-one", encDictStr, gen(1000, func(int) string { return "same" })...),
		strCase("str/lz4", encLZ4Str, gen(1000, func(i int) string {
			return fmt.Sprintf("%d %s", i, strings.Repeat(words[rng.Intn(len(words))]+" carefully ", 4))
		})...),
	}
}

// sameColumn reports whether got's rows [at, at+n) are want's rows bit for
// bit.
func sameColumn(want, got *data.Column, at int) error {
	n := len(want.I) + len(want.F) + len(want.S)
	if len(got.I)+len(got.F)+len(got.S) != at+n {
		return fmt.Errorf("%d values, want %d", len(got.I)+len(got.F)+len(got.S)-at, n)
	}
	for i, v := range want.I {
		if got.I[at+i] != v {
			return fmt.Errorf("row %d: %d, want %d", i, got.I[at+i], v)
		}
	}
	for i, v := range want.F {
		if math.Float64bits(got.F[at+i]) != math.Float64bits(v) {
			return fmt.Errorf("row %d: %v (%#x), want %v (%#x)", i, got.F[at+i], math.Float64bits(got.F[at+i]), v, math.Float64bits(v))
		}
	}
	for i, v := range want.S {
		if got.S[at+i] != v {
			return fmt.Errorf("row %d: %q, want %q", i, got.S[at+i], v)
		}
	}
	return nil
}

// TestChunkRoundTripBitExact: every case comes back bit for bit, through the
// scheme it was meant to exercise, appended after what the column held, and
// every scheme is exercised.
func TestChunkRoundTripBitExact(t *testing.T) {
	seen := map[byte]bool{}
	for _, tc := range chunkCases() {
		n := len(tc.col.I) + len(tc.col.F) + len(tc.col.S)
		enc := EncodeChunk([]byte("prefix"), &tc.col, 0, n)
		if string(enc[:6]) != "prefix" {
			t.Fatalf("%s: EncodeChunk overwrote dst", tc.name)
		}
		enc = enc[6:]
		if enc[0] != tc.scheme {
			t.Errorf("%s: encoded with scheme %d, want %d", tc.name, enc[0], tc.scheme)
		}
		seen[enc[0]] = true
		out := data.Column{I: []int64{1}, F: []float64{2}, S: []string{"3"}} // one row of each: decoding appends
		switch tc.col.Type {
		case data.Int64:
			out.F, out.S = nil, nil
		case data.Float64:
			out.I, out.S = nil, nil
		default:
			out.I, out.F = nil, nil
		}
		got, err := DecodeChunk(&out, enc)
		if err != nil || got != n {
			t.Fatalf("%s: decoded %d values, err %v; want %d", tc.name, got, err, n)
		}
		if err := sameColumn(&tc.col, &out, 1); err != nil {
			t.Errorf("%s (scheme %d): %v", tc.name, enc[0], err)
		}
	}
	for s := encRawInt; s <= encLZ4Str; s++ {
		if !seen[s] {
			t.Errorf("no case encodes with scheme %d", s)
		}
	}
}

// TestChunkRoundTripRandom: random chunks of every type, drawn so that each
// scheme comes up, round-trip bit for bit.
func TestChunkRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		n := rng.Intn(300)
		span := int64(1) << uint(rng.Intn(63))
		runs := 1 + rng.Intn(8)
		var col data.Column
		switch iter % 3 {
		case 0:
			col = data.Column{Type: data.Int64, I: gen(n, func(i int) int64 {
				if i%runs != 0 {
					return 0
				}
				return rng.Int63n(span) - span/2
			})}
			for i := 1; i < n; i++ {
				if col.I[i] == 0 || iter%2 == 0 { // runs, or a running sum
					col.I[i] += col.I[i-1]
				}
			}
		case 1:
			scale := []float64{1, 10, 100, 1000, 1 << 20}[rng.Intn(5)]
			col = data.Column{Type: data.Float64, F: gen(n, func(i int) float64 {
				switch {
				case iter%5 == 0:
					return math.Float64frombits(rng.Uint64())
				case i%runs != 0:
					return -0.5
				}
				return float64(rng.Int63n(span)-span/2) / scale
			})}
		default:
			col = data.Column{Type: data.String, S: gen(n, func(int) string {
				return strings.Repeat(string(rune('a'+rng.Intn(runs))), rng.Intn(1+runs*iter%40))
			})}
		}
		enc := EncodeChunk(nil, &col, 0, n)
		var out data.Column
		if got, err := DecodeChunk(&out, enc); err != nil || got != n {
			t.Fatalf("iteration %d (scheme %d): decoded %d values, err %v; want %d", iter, enc[0], got, err, n)
		}
		if err := sameColumn(&col, &out, 0); err != nil {
			t.Fatalf("iteration %d (scheme %d): %v", iter, enc[0], err)
		}
	}
}

// TestEncodeChunkIsASubrange: lo and hi select the rows.
func TestEncodeChunkIsASubrange(t *testing.T) {
	col := data.Column{Type: data.Float64, F: gen(100, func(i int) float64 { return float64(i) / 4 })}
	var out data.Column
	if n, err := DecodeChunk(&out, EncodeChunk(nil, &col, 10, 30)); err != nil || n != 20 {
		t.Fatalf("decoded %d values, err %v", n, err)
	}
	if err := sameColumn(&data.Column{F: col.F[10:30]}, &out, 0); err != nil {
		t.Fatal(err)
	}
}

// decodeBounded decodes chunk and fails the test if that panics or allocates
// beyond what the chunk's length can account for. Bit-packing and LZ4 both
// expand — a 1-bit code becomes a 16-byte string header, a length byte of an
// LZ4 match 255 bytes — so the bound is large; what it rules out is
// allocation set by a header field alone (the count, a dictionary size, an
// LZ4 length), which from a ten-byte chunk can ask for gigabytes. A chunk
// that decodes may also allocate its values: run-length and zero-width
// schemes legitimately expand without bound, up to maxChunkRows.
func decodeBounded(t testing.TB, chunk []byte) (data.Column, int, error) {
	t.Helper()
	const slack, perByte = 64 << 10, 16 * 255
	var out data.Column
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := DecodeChunk(&out, chunk)
	runtime.ReadMemStats(&after)
	bound := uint64(slack + perByte*len(chunk))
	if err == nil {
		values := 8*(len(out.I)+len(out.F)) + 16*len(out.S)
		for _, s := range out.S {
			values += len(s)
		}
		bound += 2 * uint64(values)
	} else if !errors.Is(err, ErrChunkCorrupt) {
		t.Fatalf("error %v is not ErrChunkCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("decoding %d bytes (err %v) allocated %d bytes, bound %d", len(chunk), err, got, bound)
	}
	return out, n, err
}

// TestDecodeChunkRejectsCorrupt: headers that lie about their body are
// refused before anything is sized by them.
func TestDecodeChunkRejectsCorrupt(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint 2^63-1
	rows := []byte{0x80, 0x80, 0x80, 0x02}                               // uvarint maxChunkRows
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	pad := make([]byte, 64)
	for name, chunk := range map[string][]byte{
		"empty":                         {},
		"scheme only":                   {encRawInt},
		"unknown scheme":                {99, 5},
		"count overflows 8*n":           cat([]byte{encRawInt}, huge, pad),
		"count past maxChunkRows":       cat([]byte{encFORInt, 0x81, 0x80, 0x80, 0x02}, pad),
		"raw int short body":            cat([]byte{encRawInt}, rows, pad),
		"raw float short body":          cat([]byte{encRawFloat}, rows, pad),
		"delta short body":              cat([]byte{encDeltaInt}, rows, pad),
		"rle run past count":            {encRLEInt, 4, 2, 5},
		"rle run of zero":               {encRLEInt, 4, 2, 0, 2, 4},
		"rle float truncated":           cat([]byte{encRLEFloat, 4}, pad[:8], []byte{3}),
		"for width 57":                  cat([]byte{encFORInt, 4}, pad[:8], []byte{57}, pad),
		"for short packed":              cat([]byte{encFORInt}, rows, pad[:8], []byte{8}, pad),
		"for missing slack":             cat([]byte{encFORInt, 8}, pad[:8], []byte{8}, pad[:8+packPad-1]),
		"float dict of none":            cat([]byte{encDictFloat, 4, 0}, pad),
		"float dict of 257":             cat([]byte{encDictFloat, 4, 0x81, 0x02}, make([]byte, 8*257+64)),
		"float dict larger than body":   cat([]byte{encDictFloat, 4, 200}, pad),
		"float dict code out of range":  cat([]byte{encDictFloat, 4, 3}, pad[:24], []byte{0xff}, pad[:packPad]),
		"decimal scale 3":               cat([]byte{encDecimalFloat, 4, 3}, pad),
		"decimal without fixes":         cat([]byte{encDecimalFloat, 4, 2}, pad[:8], []byte{0}, pad[:packPad]),
		"str block longer than body":    cat([]byte{encRawStr, 2}, huge, pad),
		"str more values than lengths":  cat([]byte{encRawStr}, rows, []byte{3}, []byte("abc"), []byte{1, 1, 1}),
		"str length past block":         {encRawStr, 2, 3, 'a', 'b', 'c', 2, 2},
		"str block not used up":         {encRawStr, 2, 3, 'a', 'b', 'c', 1, 1},
		"str dict of none":              cat([]byte{encDictStr, 4, 0}, pad),
		"str dict larger than body":     cat([]byte{encDictStr, 4}, huge, pad),
		"str dict code out of range":    cat([]byte{encDictStr, 4, 3, 3, 'a', 'b', 'c', 1, 1, 1}, []byte{0xff}, pad[:packPad]),
		"lz4 length past 255x":          cat([]byte{encLZ4Str, 4}, huge, pad),
		"lz4 output shorter than frame": cat([]byte{encLZ4Str, 4, 50, 0x10, 'a'}),
	} {
		if _, _, err := decodeBounded(t, chunk); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Every proper prefix of a valid chunk is corrupt too, except where the
	// cut falls inside trailing slack the scheme does not read.
	for _, tc := range chunkCases() {
		n := len(tc.col.I) + len(tc.col.F) + len(tc.col.S)
		enc := EncodeChunk(nil, &tc.col, 0, n)
		for cut := 0; cut < len(enc); cut++ {
			var out data.Column
			if got, err := DecodeChunk(&out, enc[:cut]); err == nil && got != n {
				t.Fatalf("%s cut to %d of %d bytes decoded %d values without error", tc.name, cut, len(enc), got)
			}
		}
	}
}

// FuzzDecodeChunk: no input makes DecodeChunk panic or allocate beyond
// decodeBounded's bound. The seeds are a valid chunk of every scheme, each
// also truncated and with bits flipped.
func FuzzDecodeChunk(f *testing.F) {
	for _, tc := range chunkCases() {
		n := len(tc.col.I) + len(tc.col.F) + len(tc.col.S)
		enc := EncodeChunk(nil, &tc.col, 0, min(n, 64))
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(enc[:len(enc)-1])
		for _, bit := range []int{3, 9, 17, 8*len(enc) - 70} {
			if bit >= 0 && bit < 8*len(enc) {
				flipped := append([]byte(nil), enc...)
				flipped[bit/8] ^= 1 << (bit % 8)
				f.Add(flipped)
			}
		}
	}
	f.Fuzz(func(t *testing.T, chunk []byte) {
		decodeBounded(t, chunk)
	})
}

// TestEncoderPrefersFastSchemes: a value-at-a-time scheme has to save a
// quarter over a word-at-a-time one, and LZ4 has to halve a string block.
func TestEncoderPrefersFastSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Dates: deltas of a day or two fit a byte or two, 12 bits frame them.
	dates := data.Column{Type: data.Int64, I: gen(4000, func(int) int64 { return 8000 + rng.Int63n(2500) })}
	if enc := EncodeChunk(nil, &dates, 0, 4000); enc[0] != encFORInt {
		t.Errorf("random dates encoded with scheme %d, want frame of reference", enc[0])
	}
	text := data.Column{Type: data.String, S: gen(1000, func(i int) string { return fmt.Sprintf("%08x-%d", rng.Uint32(), i%10) })}
	if enc := EncodeChunk(nil, &text, 0, 1000); enc[0] != encRawStr {
		t.Errorf("text LZ4 shrinks by under half encoded with scheme %d, want raw", enc[0])
	}
}

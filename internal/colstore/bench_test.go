package colstore

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/spilly-db/spilly/internal/data"
)

// BenchmarkDecodeChunk decodes one default-size row group per scheme; bytes
// are the decoded values' (8 a number, a string's length).
func BenchmarkDecodeChunk(b *testing.B) {
	const n = DefaultRowGroupSize
	rng := rand.New(rand.NewSource(1))
	words := strings.Fields("furiously final deposits haggle blithely above the slyly regular packages")
	for _, bc := range []chunkCase{
		intCase("delta", encDeltaInt, gen(n, func(i int) int64 { return int64(i) * 4 })...),
		intCase("for", encFORInt, gen(n, func(int) int64 { return 1 + rng.Int63n(20000) })...),
		floatCase("rawfloat", encRawFloat, gen(n, func(int) float64 { return rng.Float64() * 1e5 })...),
		floatCase("dictfloat", encDictFloat, gen(n, func(int) float64 { return float64(rng.Intn(11)) / 100 })...),
		floatCase("decimal", encDecimalFloat, gen(n, func(int) float64 {
			return float64(1+rng.Intn(50)) * (float64(90000+rng.Intn(20000)) / 100)
		})...),
		strCase("dictstr", encDictStr, gen(n, func(int) string {
			return []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}[rng.Intn(7)]
		})...),
		strCase("lz4str", encLZ4Str, gen(n, func(i int) string {
			w := func() string { return words[rng.Intn(len(words))] }
			return fmt.Sprintf("%s %s %s %s %s %s %s %s.", w(), w(), w(), w(), w(), w(), w(), w())
		})...),
	} {
		b.Run(bc.name, func(b *testing.B) {
			enc := EncodeChunk(nil, &bc.col, 0, n)
			if enc[0] != bc.scheme {
				b.Fatalf("encoded with scheme %d, want %d", enc[0], bc.scheme)
			}
			bytes := 8 * n
			if bc.col.Type == data.String {
				bytes = 0
				for _, s := range bc.col.S {
					bytes += len(s)
				}
			}
			b.SetBytes(int64(bytes))
			b.ReportAllocs()
			var out data.Column
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out.I, out.F, out.S = out.I[:0], out.F[:0], out.S[:0]
				if _, err := DecodeChunk(&out, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package chaos_test

import (
	"math"
	"testing"

	"github.com/spilly-db/spilly/internal/chaos"
	"github.com/spilly-db/spilly/internal/data"
)

// TestFingerprintFloatToleranceIsRelative: summation order moves a float
// aggregate by an ULP between two fault-free runs, which must not show,
// while a real difference must.
func TestFingerprintFloatToleranceIsRelative(t *testing.T) {
	sch := data.NewSchema(data.ColumnDef{Name: "revenue", Type: data.Float64})
	fp := func(v float64) string {
		b := data.NewBatch(sch, 1)
		b.Cols[0].F = append(b.Cols[0].F, v)
		b.SetLen(1)
		return chaos.Fingerprint(b)
	}
	for _, x := range []float64{
		// A 5e9 sum(l_extendedprice) next to a fourth-decimal rounding
		// boundary: one ULP is 1e-6 here, so four fixed decimals flip.
		5123456789.12345,
		// Q9's sum_profit for IRAN 1996 at SF 0.01, an exact decimal that
		// ten significant decimal digits cut at a trailing 5.
		1004122.5655,
	} {
		for _, y := range []float64{math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1))} {
			if fp(x) != fp(y) {
				t.Errorf("one ULP apart at %g fingerprints differ: %s vs %s", x, fp(x), fp(y))
			}
		}
		if y := x * (1 + 1e-6); fp(x) == fp(y) {
			t.Errorf("1e-6 relative difference at %g fingerprints equal: %s", x, fp(x))
		}
	}
}

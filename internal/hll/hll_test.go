package hll

import (
	"math"
	"testing"

	"github.com/spilly-db/spilly/internal/xhash"
)

func estimateOf(n int, seed uint64) uint64 {
	s := New()
	for i := 0; i < n; i++ {
		s.Add(xhash.U64(uint64(i), seed))
	}
	return s.Estimate()
}

func TestEmpty(t *testing.T) {
	if got := New().Estimate(); got != 0 {
		t.Fatalf("empty sketch estimate = %d, want 0", got)
	}
}

func TestSmallExact(t *testing.T) {
	// Linear counting should be near-exact for tiny cardinalities.
	for _, n := range []int{1, 2, 5, 10, 100} {
		got := estimateOf(n, 1)
		if math.Abs(float64(got)-float64(n)) > math.Max(2, 0.05*float64(n)) {
			t.Errorf("n=%d: estimate %d too far off", n, got)
		}
	}
}

func TestErrorBound(t *testing.T) {
	// Standard error at precision 12 is ~1.6%; allow 4 sigma across seeds.
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		for seed := uint64(0); seed < 3; seed++ {
			got := estimateOf(n, seed)
			relErr := math.Abs(float64(got)-float64(n)) / float64(n)
			if relErr > 0.065 {
				t.Errorf("n=%d seed=%d: estimate %d, rel err %.3f > 0.065", n, seed, got, relErr)
			}
		}
	}
}

func TestDuplicatesDoNotInflate(t *testing.T) {
	s := New()
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 1000; i++ {
			s.Add(xhash.U64(uint64(i), 9))
		}
	}
	got := s.Estimate()
	if got > 1100 || got < 900 {
		t.Fatalf("estimate with duplicates = %d, want about 1000", got)
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	a, b, u := New(), New(), New()
	for i := 0; i < 5000; i++ {
		h := xhash.U64(uint64(i), 2)
		a.Add(h)
		u.Add(h)
	}
	for i := 2500; i < 10000; i++ {
		h := xhash.U64(uint64(i), 2)
		b.Add(h)
		u.Add(h)
	}
	a.Merge(b)
	if a.Estimate() != u.Estimate() {
		t.Fatalf("merged estimate %d != union estimate %d", a.Estimate(), u.Estimate())
	}
	relErr := math.Abs(float64(a.Estimate())-10000) / 10000
	if relErr > 0.065 {
		t.Fatalf("union estimate %d, rel err %.3f", a.Estimate(), relErr)
	}
}

// TestAddAllAndRank: AddAll is Add over a slice, and the rank Add takes from
// TrailingZeros64 is the one the bit-at-a-time loop counted.
func TestAddAllAndRank(t *testing.T) {
	hs := make([]uint64, 50000)
	for i := range hs {
		hs[i] = xhash.U64(uint64(i), 5)
	}
	// Hashes whose rank field is all zeros, or zeros but the top bit.
	hs = append(hs, 0, 1<<Precision-1, 1<<63, 1<<63|77)
	one, all := New(), New()
	var ref [numRegisters]uint8
	for _, h := range hs {
		one.Add(h)
		w := h>>Precision | 1<<(64-Precision)
		rank := uint8(1)
		for w&1 == 0 {
			rank++
			w >>= 1
		}
		if idx := h & (numRegisters - 1); rank > ref[idx] {
			ref[idx] = rank
		}
	}
	all.AddAll(hs)
	if one.registers != ref {
		t.Fatal("Add's registers differ from the bit-at-a-time rank loop's")
	}
	if all.registers != one.registers {
		t.Fatal("AddAll's registers differ from Add's")
	}
}

func TestReset(t *testing.T) {
	s := New()
	for i := 0; i < 1000; i++ {
		s.Add(xhash.U64(uint64(i), 3))
	}
	s.Reset()
	if got := s.Estimate(); got != 0 {
		t.Fatalf("after Reset estimate = %d, want 0", got)
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.Add(xhash.U64(uint64(i), 0))
	}
}

package pages

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestAppendSealedPartlyFilled: a partly-filled page stages its header,
// tuples and slots only — UsedBytes() of them — and loads back to the same
// tuples, slotted and fixed alike, alone or behind other blocks in one
// staging buffer. The page's gap holds a recycled buffer's garbage, which
// must not reach the staged bytes.
func TestAppendSealedPartlyFilled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, fixed := range []int{0, 24} {
		for _, fill := range []int{0, 1, 7, 40} {
			t.Run(fmt.Sprintf("fixed=%d/tuples=%d", fixed, fill), func(t *testing.T) {
				buf := make([]byte, 4096)
				for i := range buf {
					buf[i] = 0xee // an earlier owner's bytes
				}
				p := newOn(buf, fixed)
				var want [][]byte
				for len(want) < fill {
					n := fixed
					if n == 0 {
						n = rng.Intn(60)
					}
					tup := make([]byte, n)
					rng.Read(tup)
					if _, ok := p.Append(tup); !ok {
						t.Fatal("page full")
					}
					want = append(want, tup)
				}
				prefix := []byte("earlier block")
				staged := p.AppendSealed(append([]byte(nil), prefix...))
				block := staged[len(prefix):]
				if len(block) != p.UsedBytes() {
					t.Fatalf("staged %d bytes, page uses %d", len(block), p.UsedBytes())
				}
				if fill == 0 && len(block) != headerSize {
					t.Fatalf("empty page staged %d bytes, want its header alone", len(block))
				}
				got, err := Load(block)
				if err != nil {
					t.Fatal(err)
				}
				if got.Tuples() != len(want) || got.FixedTupleSize() != fixed {
					t.Fatalf("loaded %d tuples of fixed size %d, want %d of %d", got.Tuples(), got.FixedTupleSize(), len(want), fixed)
				}
				for i, w := range want {
					if !bytes.Equal(got.Tuple(i), w) {
						t.Fatalf("tuple %d differs after the round trip", i)
					}
				}
			})
		}
	}
}

// TestSizeClasses: a request is served from the smallest class that holds it,
// at most a quarter larger, and a returned buffer goes to the largest class
// it can serve.
func TestSizeClasses(t *testing.T) {
	for _, n := range []int{minRecycleBuf, minRecycleBuf + 1, 5000, 8191, 8192, 65535, DefaultPageSize, DefaultPageSize + 1, 100000, 3 << 20} {
		i := classUp(n)
		size := classSize(i)
		if size < n || 4*size > 5*n {
			t.Errorf("request %d served by class %d of %d bytes", n, i, size)
		}
		if i > 0 && classSize(i-1) >= n {
			t.Errorf("request %d: class %d of %d bytes holds it too", n, i-1, classSize(i-1))
		}
		if d := classDown(size); d != i {
			t.Errorf("a %d-byte buffer goes to class %d, want %d", size, d, i)
		}
		if d := classDown(size + 1); classSize(d) > size+1 || d != i {
			t.Errorf("a %d-byte buffer goes to class %d of %d bytes", size+1, d, classSize(d))
		}
	}
	if classDown(minRecycleBuf-1) != -1 {
		t.Error("a buffer below the smallest class is recycled")
	}
}

// TestRecyclerReuse: a returned page buffer is what the next request of its
// class gets, before the collector runs; a typed array goes round through
// the same buffers.
func TestRecyclerReuse(t *testing.T) {
	b := GetBuf(DefaultPageSize)
	if len(b) != DefaultPageSize {
		t.Fatalf("GetBuf(%d) has length %d", DefaultPageSize, len(b))
	}
	PutBuf(b)
	c := GetBuf(DefaultPageSize - 100)
	if &c[0] != &b[0] {
		t.Skip("the collector ran between PutBuf and GetBuf") // rare; nothing to check
	}
	if cap(c) != DefaultPageSize || len(c) != DefaultPageSize-100 {
		t.Fatalf("recycled buffer has length %d, capacity %d", len(c), cap(c))
	}
	if poisonRecycled && c[0] != 0xdb {
		t.Fatal("race-detector build returned an unpoisoned buffer")
	}
	PutBuf(c)
	a := GetArray[uint64](DefaultPageSize / 8)
	if len(a) != DefaultPageSize/8 {
		t.Fatalf("GetArray has length %d", len(a))
	}
	PutArray(a)
	runtime.KeepAlive(a)
}

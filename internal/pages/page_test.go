package pages

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSlottedAppendAndRead(t *testing.T) {
	p := New(4096)
	tuples := [][]byte{
		[]byte("alpha"), []byte(""), []byte("a much longer tuple with padding"),
		{0, 1, 2, 3}, []byte("z"),
	}
	for _, tup := range tuples {
		if _, ok := p.Append(tup); !ok {
			t.Fatalf("append of %q failed unexpectedly", tup)
		}
	}
	if p.Tuples() != len(tuples) {
		t.Fatalf("Tuples() = %d, want %d", p.Tuples(), len(tuples))
	}
	for i, want := range tuples {
		if got := p.Tuple(i); !bytes.Equal(got, want) {
			t.Fatalf("tuple %d = %q, want %q", i, got, want)
		}
	}
}

func TestAppendUntilFull(t *testing.T) {
	p := New(512)
	tup := make([]byte, 60)
	n := 0
	for {
		if _, ok := p.Append(tup); !ok {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("no tuple fit on a 512-byte page")
	}
	// Page must reject further tuples but keep existing ones intact.
	if p.HasSpace(60) {
		t.Fatal("HasSpace true after Append returned false")
	}
	if p.Tuples() != n {
		t.Fatalf("tuple count changed after full: %d != %d", p.Tuples(), n)
	}
}

func TestFullBoundary(t *testing.T) {
	// Page with exact space for 4 tuples of 100 bytes and their slots after
	// the header.
	p := New(headerSize + 4*(100+slotSize))
	for i := 0; i < 4; i++ {
		if _, ok := p.Append(make([]byte, 100)); !ok {
			t.Fatalf("tuple %d should fit", i)
		}
	}
	if _, ok := p.Append(make([]byte, 100)); ok {
		t.Fatal("5th tuple should not fit")
	}
}

func TestAllocInPlace(t *testing.T) {
	p := New(1024)
	dst, ok := p.Alloc(5)
	if !ok {
		t.Fatal("alloc failed")
	}
	copy(dst, "hello")
	if got := p.Tuple(0); string(got) != "hello" {
		t.Fatalf("in-place tuple = %q", got)
	}
}

// TestAllocRunMatchesAlloc: a run reservation stops at the first tuple that
// does not fit and leaves the page as one Alloc per tuple would, every
// destination exactly its tuple's size.
func TestAllocRunMatchesAlloc(t *testing.T) {
	sizes := []int{5, 0, 300, 17, 400, 250, 30}
	run, one := New(1024), New(1024)
	dsts := make([][]byte, len(sizes))
	n := run.AllocRun(sizes, dsts)
	for i, size := range sizes[:n] {
		if len(dsts[i]) != size || cap(dsts[i]) != size {
			t.Fatalf("destination %d: len %d cap %d, want %d", i, len(dsts[i]), cap(dsts[i]), size)
		}
		for j := range dsts[i] {
			dsts[i][j] = byte(i)
		}
		dst, _ := one.Alloc(size)
		for j := range dst {
			dst[j] = byte(i)
		}
	}
	if _, ok := one.Alloc(sizes[n]); ok || n == 0 || n == len(sizes) {
		t.Fatalf("AllocRun reserved %d of %d tuples, but Alloc fits tuple %d", n, len(sizes), n)
	}
	if run.Tuples() != one.Tuples() || run.UsedBytes() != one.UsedBytes() {
		t.Fatalf("run: %d tuples in %d bytes, Alloc: %d in %d", run.Tuples(), run.UsedBytes(), one.Tuples(), one.UsedBytes())
	}
	if !bytes.Equal(run.AppendSealed(nil), one.AppendSealed(nil)) {
		t.Fatal("sealed pages differ")
	}
	if got := run.AllocRun(sizes[n:], dsts[n:]); got != 0 {
		t.Fatalf("a full page reserved %d more tuples", got)
	}
}

func TestSealLoadRoundTripSlotted(t *testing.T) {
	p := New(2048)
	var want [][]byte
	rng := rand.New(rand.NewSource(7))
	for {
		tup := make([]byte, rng.Intn(50))
		rng.Read(tup)
		if _, ok := p.Append(tup); !ok {
			break
		}
		want = append(want, tup)
	}
	block := p.Seal()
	got, err := Load(block)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuples() != len(want) {
		t.Fatalf("loaded %d tuples, want %d", got.Tuples(), len(want))
	}
	for i, w := range want {
		if !bytes.Equal(got.Tuple(i), w) {
			t.Fatalf("tuple %d mismatch after round trip", i)
		}
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"too short":     make([]byte, headerSize-1),
		"zeroed header": make([]byte, 256),
	}
	// dataEnd beyond page size.
	p := New(256)
	p.Append([]byte("x"))
	bad := append([]byte(nil), p.Seal()...)
	bad[4] = 0xff
	bad[5] = 0xff
	cases["dataEnd overflow"] = bad

	// Slot offset pointing backwards.
	p2 := New(256)
	p2.Append([]byte("aa"))
	p2.Append([]byte("bb"))
	bad2 := append([]byte(nil), p2.Seal()...)
	bad2[len(bad2)-slotSize] = 0 // first slot offset -> 0 (< headerSize)
	cases["bad slot offset"] = bad2

	// A zeroed header means dataEnd=0 < headerSize: must fail too.
	for name, block := range cases {
		if _, err := Load(block); err == nil {
			t.Errorf("%s: Load accepted corrupt block", name)
		}
	}
}

// FuzzLoadPage: Load parses blocks read back from a device, so no input may
// make it panic, and every tuple of a page it accepts lies in the block's
// data region — after the header, before the slot array. The seeds are an
// empty page, a full one, a partly filled page staged without its gap, a
// short header, and a tuple count that puts the slot array past the block's
// start.
func FuzzLoadPage(f *testing.F) {
	f.Add(New(256).Seal())
	full := New(512)
	for i := 0; ; i++ {
		if _, ok := full.Append(bytes.Repeat([]byte{byte(i)}, i%23)); !ok {
			break
		}
	}
	f.Add(full.Seal())
	part := New(4096)
	for _, tup := range []string{"alpha", "", "a longer tuple", "z"} {
		part.Append([]byte(tup))
	}
	staged := part.AppendSealed(nil)
	f.Add(staged)
	f.Add(staged[:headerSize-1])
	past := append([]byte(nil), staged...)
	binary.LittleEndian.PutUint32(past, uint32(len(past)/slotSize+1))
	f.Add(past)
	f.Fuzz(func(t *testing.T, block []byte) {
		p, err := Load(block)
		if err != nil {
			return
		}
		slots := len(block) - p.Tuples()*slotSize
		for i := 0; i < p.Tuples(); i++ {
			tup := p.Tuple(i)
			start := cap(block) - cap(tup) // Tuple slices the block itself
			if start < headerSize || start+len(tup) > slots || p.Offset(i) != start {
				t.Fatalf("tuple %d at [%d,%d) of a %d-byte block whose slots start at %d", i, start, start+len(tup), len(block), slots)
			}
		}
	})
}

func TestResetClearsState(t *testing.T) {
	p := New(512)
	p.Append([]byte("data"))
	p.Part = 3
	p.Reset()
	if p.Tuples() != 0 || p.Part != PartUnpartitioned || p.UsedBytes() != headerSize {
		t.Fatalf("reset left state: tuples=%d part=%d used=%d", p.Tuples(), p.Part, p.UsedBytes())
	}
}

func TestQuickSlottedRoundTrip(t *testing.T) {
	f := func(raw [][]byte) bool {
		p := New(DefaultPageSize)
		var stored [][]byte
		for _, tup := range raw {
			if len(tup) > 1000 {
				tup = tup[:1000]
			}
			if _, ok := p.Append(tup); ok {
				stored = append(stored, tup)
			}
		}
		loaded, err := Load(p.Seal())
		if err != nil {
			return false
		}
		if loaded.Tuples() != len(stored) {
			return false
		}
		for i, w := range stored {
			if !bytes.Equal(loaded.Tuple(i), w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBudget(t *testing.T) {
	b := NewBudget(1000)
	if !b.TryReserve(600) {
		t.Fatal("reserve 600 of 1000 failed")
	}
	if b.TryReserve(500) {
		t.Fatal("reserve beyond limit succeeded")
	}
	if !b.TryReserve(400) {
		t.Fatal("reserve exactly to limit failed")
	}
	b.Release(1000)
	if b.Used() != 0 {
		t.Fatalf("used = %d after full release", b.Used())
	}
}

func TestBudgetUnlimited(t *testing.T) {
	b := NewBudget(0)
	if !b.TryReserve(1 << 40) {
		t.Fatal("unlimited budget refused reservation")
	}
	if b.Exhausted(1 << 20) {
		t.Fatal("unlimited budget reports exhausted")
	}
}

func TestBudgetExhausted(t *testing.T) {
	b := NewBudget(100)
	if b.Exhausted(50) {
		t.Fatal("fresh budget exhausted")
	}
	b.Reserve(60)
	if !b.Exhausted(50) {
		t.Fatal("60+50 > 100 should be exhausted")
	}
	if b.Exhausted(40) {
		t.Fatal("60+40 <= 100 should fit")
	}
}

// TestBudgetResize: resizing keeps what is reserved, so bytes taken under the
// old limit are released into the same budget, and the new limit decides from
// then on.
func TestBudgetResize(t *testing.T) {
	b := NewBudget(100)
	b.Reserve(80)
	b.Resize(50)
	if b.Limit() != 50 || b.Used() != 80 || b.Peak() != 80 {
		t.Fatalf("after shrinking: limit %d used %d peak %d, want 50 80 80", b.Limit(), b.Used(), b.Peak())
	}
	if !b.Exhausted(1) || b.TryReserve(1) {
		t.Fatal("a budget shrunk below its use still admits reservations")
	}
	b.Release(80)
	if b.Used() != 0 || !b.TryReserve(50) || b.TryReserve(1) {
		t.Fatal("the shrunk limit does not bound reservations after release")
	}
	b.Resize(0)
	if b.Exhausted(1<<30) || !b.TryReserve(1<<30) {
		t.Fatal("a budget resized to 0 is not unlimited")
	}
	var none *Budget
	none.Resize(10)
	if none.Limit() != 0 {
		t.Fatal("a nil budget has a limit")
	}
}

func TestPoolReuse(t *testing.T) {
	bud := NewBudget(0)
	pool := NewPool(512, 0, bud)
	a := pool.Get()
	a.Append([]byte("x"))
	pool.Put(a)
	c := pool.Get()
	if c != a {
		t.Fatal("pool did not reuse freed page")
	}
	if c.Tuples() != 0 {
		t.Fatal("reused page not reset")
	}
	if pool.Created() != 1 {
		t.Fatalf("created = %d, want 1", pool.Created())
	}
}

// TestNewPoolSlottedOnly: pages have one layout, so a pool asked for a
// fixed tuple size refuses.
func TestNewPoolSlottedOnly(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool accepted a fixed tuple size")
		}
	}()
	NewPool(1024, 16, nil)
}

func TestPoolBudgetAccounting(t *testing.T) {
	bud := NewBudget(0)
	pool := NewPool(1024, 0, bud)
	p1 := pool.Get()
	_ = pool.Get()
	if bud.Used() != 2048 {
		t.Fatalf("budget used = %d, want 2048", bud.Used())
	}
	pool.Discard(p1)
	if bud.Used() != 1024 {
		t.Fatalf("budget used = %d after discard, want 1024", bud.Used())
	}
}

func BenchmarkAppendSlotted(b *testing.B) {
	p := New(DefaultPageSize)
	tup := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		if _, ok := p.Append(tup); !ok {
			p.Reset()
		}
	}
}

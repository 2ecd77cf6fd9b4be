package nvmesim

import (
	"bytes"
	"testing"
)

func leaseArray(t *testing.T, devs int, capacity int64) *Array {
	t.Helper()
	spec := DeviceSpec{ReadBandwidth: 1e12, WriteBandwidth: 1e12, Capacity: capacity}
	return New(devs, spec, RealClock{})
}

func TestLeaseFreeReclaimsOnlyOwnExtents(t *testing.T) {
	a := leaseArray(t, 1, 0)
	l1 := a.NewLease()
	l2 := a.NewLease()

	block := func(fill byte) []byte {
		b := make([]byte, BlockSize)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	off1, err := a.AllocSpillLease(0, BlockSize, l1)
	if err != nil {
		t.Fatal(err)
	}
	off2, err := a.AllocSpillLease(0, BlockSize, l2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(0, off1, block(0x11)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(0, off2, block(0x22)); err != nil {
		t.Fatal(err)
	}

	l1.Free()

	// l2's block survives l1's teardown — the bug the global Reset had.
	dst := make([]byte, BlockSize)
	if _, _, err := a.Read(0, off2, dst); err != nil {
		t.Fatalf("read of surviving lease's block: %v", err)
	}
	if !bytes.Equal(dst, block(0x22)) {
		t.Fatal("surviving lease's block corrupted by other lease's Free")
	}
	// l1's block is gone.
	if _, _, err := a.Read(0, off1, dst); err == nil {
		t.Fatal("freed block still readable")
	}
	if got := a.LiveExtents(); got != 1 {
		t.Fatalf("LiveExtents = %d, want 1", got)
	}
	if got := l1.LiveBytes(); got != 0 {
		t.Fatalf("freed lease LiveBytes = %d, want 0", got)
	}
	if got := l2.LiveBytes(); got != BlockSize {
		t.Fatalf("live lease LiveBytes = %d, want %d", got, BlockSize)
	}

	l2.Free()
	if got := a.LiveExtents(); got != 0 {
		t.Fatalf("LiveExtents after all frees = %d, want 0", got)
	}
	if got := a.Leases(); got != 0 {
		t.Fatalf("Leases after all frees = %d, want 0", got)
	}
	if got := a.Stats().SpillBytes; got != 0 {
		t.Fatalf("SpillBytes after all frees = %d, want 0", got)
	}
}

func TestLeaseFreeSpaceIsReused(t *testing.T) {
	// Capacity of exactly 4 blocks: if freed space were not reused, the
	// second wave of allocations would fail with ErrDeviceFull.
	a := leaseArray(t, 1, 4*BlockSize)
	for wave := 0; wave < 8; wave++ {
		l := a.NewLease()
		for i := 0; i < 4; i++ {
			if _, err := a.AllocSpillLease(0, BlockSize, l); err != nil {
				t.Fatalf("wave %d alloc %d: %v", wave, i, err)
			}
		}
		if _, err := a.AllocSpillLease(0, BlockSize, l); err == nil {
			t.Fatalf("wave %d: alloc beyond capacity succeeded", wave)
		}
		l.Free()
	}
	if cur := a.devices[0].writeCursor.Load(); cur != 0 {
		t.Fatalf("write cursor = %d after all frees, want 0 (cursor shrink)", cur)
	}
}

func TestLeaseInterleavedFreeCoalesces(t *testing.T) {
	// Interleave two leases' extents so l1's frees leave holes; after l2
	// frees too, everything coalesces and the cursor returns to zero.
	a := leaseArray(t, 1, 0)
	l1, l2 := a.NewLease(), a.NewLease()
	for i := 0; i < 6; i++ {
		l := l1
		if i%2 == 1 {
			l = l2
		}
		if _, err := a.AllocSpillLease(0, BlockSize, l); err != nil {
			t.Fatal(err)
		}
	}
	l1.Free()
	d := a.devices[0]
	if d.writeCursor.Load() == 0 {
		t.Fatal("cursor fully shrank while l2 still holds extents")
	}
	// A 2-block allocation cannot fit in the 1-block holes l1 left; it must
	// extend the cursor, not overwrite l2's data.
	l3 := a.NewLease()
	off, err := a.AllocSpillLease(0, 2*BlockSize, l3)
	if err != nil {
		t.Fatal(err)
	}
	if off < 6*BlockSize {
		t.Fatalf("2-block alloc placed at %d inside 1-block holes", off)
	}
	l3.Free()
	l2.Free()
	if cur := d.writeCursor.Load(); cur != 0 {
		t.Fatalf("cursor = %d after all frees, want 0", cur)
	}
	if len(d.frees) != 0 || d.freeBytes != 0 {
		t.Fatalf("free list not fully coalesced: %v (%d bytes)", d.frees, d.freeBytes)
	}
}

func TestLeaseFreeIsIdempotent(t *testing.T) {
	a := leaseArray(t, 2, 0)
	l := a.NewLease()
	if _, err := a.AllocSpillLease(1, BlockSize, l); err != nil {
		t.Fatal(err)
	}
	l.Free()
	l.Free()
	if got := a.Leases(); got != 0 {
		t.Fatalf("Leases = %d after double Free, want 0", got)
	}
}

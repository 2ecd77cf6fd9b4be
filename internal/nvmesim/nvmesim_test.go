package nvmesim

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

var testSpec = DeviceSpec{
	ReadBandwidth:  1e6, // 1 MB/s: slow enough for visible timing on a virtual clock
	WriteBandwidth: 5e5,
	Latency:        time.Millisecond,
}

func virtualArray(n int) (*Array, *VirtualClock) {
	clk := NewVirtualClock(time.Unix(0, 0))
	return New(n, testSpec, clk), clk
}

func TestWriteReadRoundTrip(t *testing.T) {
	a, _ := virtualArray(2)
	data := bytes.Repeat([]byte{0xab}, 1024)
	off, err := a.AllocSpill(1, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(1, off, data); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 1024)
	if _, _, err := a.Read(1, off, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("read data differs from written data")
	}
}

func TestAllocSpillNoOverlap(t *testing.T) {
	a, _ := virtualArray(1)
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		off, err := a.AllocSpill(0, 700) // unaligned size, rounds to 1024
		if err != nil {
			t.Fatal(err)
		}
		if off%BlockSize != 0 {
			t.Fatalf("unaligned alloc offset %d", off)
		}
		if seen[off] {
			t.Fatalf("offset %d allocated twice", off)
		}
		seen[off] = true
	}
	if got := a.Stats().SpillBytes; got != 100*1024 {
		t.Fatalf("spill bytes = %d, want %d", got, 100*1024)
	}
}

func TestWriteTimingModel(t *testing.T) {
	a, clk := virtualArray(1)
	start := clk.Now()
	// 500 KB at 500 KB/s = 1 s transfer + 1 ms latency.
	data := make([]byte, 500_000)
	ready, err := a.Write(0, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	want := start.Add(time.Second + time.Millisecond)
	if !ready.Equal(want) {
		t.Fatalf("readyAt = %v, want %v", ready.Sub(start), want.Sub(start))
	}
	// A second write queues behind the first: busy channel serializes.
	ready2, err := a.Write(0, BlockSize*1024, data)
	if err != nil {
		t.Fatal(err)
	}
	want2 := start.Add(2*time.Second + time.Millisecond)
	if !ready2.Equal(want2) {
		t.Fatalf("second readyAt = %v, want %v", ready2.Sub(start), want2.Sub(start))
	}
}

func TestReadWriteChannelsIndependent(t *testing.T) {
	a, clk := virtualArray(1)
	data := make([]byte, 500_000)
	if _, err := a.Write(0, 0, data); err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	dst := make([]byte, len(data))
	// Read bandwidth is 1 MB/s: 0.5 s + 1 ms, NOT queued behind the write.
	ready, _, err := a.Read(0, 0, dst)
	if err != nil {
		t.Fatal(err)
	}
	want := start.Add(500*time.Millisecond + time.Millisecond)
	if !ready.Equal(want) {
		t.Fatalf("read readyAt = %v, want %v", ready.Sub(start), want.Sub(start))
	}
}

func TestDevicesIndependent(t *testing.T) {
	a, clk := virtualArray(4)
	start := clk.Now()
	data := make([]byte, 500_000)
	for dev := 0; dev < 4; dev++ {
		ready, err := a.Write(dev, 0, data)
		if err != nil {
			t.Fatal(err)
		}
		want := start.Add(time.Second + time.Millisecond)
		if !ready.Equal(want) {
			t.Fatalf("dev %d readyAt = %v, want %v (devices must not serialize each other)", dev, ready.Sub(start), want.Sub(start))
		}
	}
}

func TestReadUnwritten(t *testing.T) {
	a, _ := virtualArray(1)
	if _, _, err := a.Read(0, 4096, make([]byte, 16)); err != ErrBadRange {
		t.Fatalf("err = %v, want ErrBadRange", err)
	}
}

func TestShortBuffer(t *testing.T) {
	a, _ := virtualArray(1)
	a.Write(0, 0, make([]byte, 1024))
	if _, _, err := a.Read(0, 0, make([]byte, 512)); err != ErrShortBuffer {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
}

func TestBadDeviceAndAlignment(t *testing.T) {
	a, _ := virtualArray(1)
	if _, err := a.Write(3, 0, nil); err != ErrBadDevice {
		t.Fatalf("want ErrBadDevice, got %v", err)
	}
	if _, err := a.Write(0, 100, nil); err != ErrUnaligned {
		t.Fatalf("want ErrUnaligned, got %v", err)
	}
	if _, err := a.AllocSpill(-1, 10); err != ErrBadDevice {
		t.Fatalf("want ErrBadDevice, got %v", err)
	}
}

func TestCapacityLimit(t *testing.T) {
	spec := testSpec
	spec.Capacity = 4096
	a := New(1, spec, NewVirtualClock(time.Unix(0, 0)))
	l := a.NewLease()
	if _, err := a.AllocSpillLease(0, 4096, l); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocSpillLease(0, 512, l); !errors.Is(err, ErrDeviceFull) {
		t.Fatalf("want ErrDeviceFull, got %v", err)
	}
	// Failed alloc must roll back so freeing the lease restores full capacity.
	l.Free()
	if _, err := a.AllocSpill(0, 4096); err != nil {
		t.Fatalf("after free: %v", err)
	}
}

func TestInjectedFailures(t *testing.T) {
	a, _ := virtualArray(1)
	a.InjectFailures(0, 2)
	if _, err := a.Write(0, 0, make([]byte, 64)); err == nil {
		t.Fatal("first injected write failure missing")
	}
	if _, _, err := a.Read(0, 0, make([]byte, 64)); err == nil {
		t.Fatal("second injected failure missing")
	}
	if _, err := a.Write(0, 0, make([]byte, 64)); err != nil {
		t.Fatalf("third write should succeed, got %v", err)
	}
}

func TestStatsAndReset(t *testing.T) {
	a, _ := virtualArray(2)
	a.Write(0, 0, make([]byte, 1000))
	a.Write(1, 0, make([]byte, 2000))
	a.Read(0, 0, make([]byte, 1000))
	s := a.Stats()
	if s.BytesWritten != 3000 || s.BytesRead != 1000 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAggregateBandwidth(t *testing.T) {
	a, _ := virtualArray(4)
	if got := a.MaxWriteBandwidth(); got != 4*testSpec.WriteBandwidth {
		t.Fatalf("MaxWriteBandwidth = %v", got)
	}
	if got := a.MaxReadBandwidth(); got != 4*testSpec.ReadBandwidth {
		t.Fatalf("MaxReadBandwidth = %v", got)
	}
}

func TestLocPacking(t *testing.T) {
	l := MakeLoc(7, 1<<20, 64<<10)
	if l.Device() != 7 || l.Offset() != 1<<20 || l.Size() != 64<<10 {
		t.Fatalf("loc round trip: %v", l)
	}
}

func TestLocPackingQuick(t *testing.T) {
	f := func(dev uint8, offBlocks uint32, sizeBlocks uint16) bool {
		off := int64(offBlocks) * BlockSize
		size := int(sizeBlocks) * BlockSize
		l := MakeLoc(int(dev), off, size)
		return l.Device() == int(dev) && l.Offset() == off && l.Size() == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocPanicsOnUnaligned(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MakeLoc accepted unaligned offset")
		}
	}()
	MakeLoc(0, 7, 512)
}

func TestScaledSpec(t *testing.T) {
	s := KioxiaCM7.Scaled(0.01)
	if s.ReadBandwidth != 11e7 || s.WriteBandwidth != 6.2e7 {
		t.Fatalf("scaled spec = %+v", s)
	}
	if s.Latency != KioxiaCM7.Latency {
		t.Fatal("scaling must not change latency")
	}
}

func TestConcurrentWrites(t *testing.T) {
	a := New(2, testSpec, RealClock{})
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				off, err := a.AllocSpill(g%2, 1024)
				if err != nil {
					done <- err
					return
				}
				data := bytes.Repeat([]byte{byte(g)}, 1024)
				if _, err := a.Write(g%2, off, data); err != nil {
					done <- err
					return
				}
				dst := make([]byte, 1024)
				if _, _, err := a.Read(g%2, off, dst); err != nil {
					done <- err
					return
				}
				if dst[0] != byte(g) || dst[1023] != byte(g) {
					done <- ErrBadRange
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Stats().BytesWritten; got != 8*50*1024 {
		t.Fatalf("bytes written = %d", got)
	}
}

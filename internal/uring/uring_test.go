package uring

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/nvmesim"
)

var spec = nvmesim.DeviceSpec{
	ReadBandwidth:  1e6,
	WriteBandwidth: 1e6,
	Latency:        time.Millisecond,
}

func newRing(devs int) (*Ring, *nvmesim.VirtualClock) {
	clk := nvmesim.NewVirtualClock(time.Unix(0, 0))
	return New(nvmesim.New(devs, spec, clk)), clk
}

func TestWriteReadRoundTrip(t *testing.T) {
	r, _ := newRing(2)
	data := bytes.Repeat([]byte{0x5a}, 2048)
	loc, err := r.QueueWrite(append([]byte(nil), data...), 1)
	if err != nil {
		t.Fatal(err)
	}
	comps := r.WaitAll(nil)
	if len(comps) != 1 || comps[0].Err != nil || comps[0].UserData != 1 {
		t.Fatalf("write completions: %+v", comps)
	}
	dst := make([]byte, 2048)
	r.QueueRead(loc, dst, 2)
	comps = r.WaitAll(nil)
	if len(comps) != 1 || comps[0].Err != nil {
		t.Fatalf("read completions: %+v", comps)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("data mismatch after round trip")
	}
}

func TestRoundRobinSpreading(t *testing.T) {
	r, _ := newRing(4)
	devs := map[int]int{}
	for i := 0; i < 8; i++ {
		loc, err := r.QueueWrite(make([]byte, 512), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		devs[loc.Device()]++
	}
	for dev := 0; dev < 4; dev++ {
		if devs[dev] != 2 {
			t.Fatalf("device %d got %d writes, want 2 (round robin)", dev, devs[dev])
		}
	}
}

func TestBatchedSubmission(t *testing.T) {
	r, _ := newRing(1)
	for i := 0; i < 5; i++ {
		if _, err := r.QueueWrite(make([]byte, 512), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Pending() != 5 || r.Outstanding() != 0 {
		t.Fatalf("pending=%d outstanding=%d before submit", r.Pending(), r.Outstanding())
	}
	if n := r.Submit(); n != 5 {
		t.Fatalf("Submit returned %d", n)
	}
	if r.Pending() != 0 || r.Outstanding() != 5 {
		t.Fatalf("pending=%d outstanding=%d after submit", r.Pending(), r.Outstanding())
	}
}

func TestPollRespectsModelTime(t *testing.T) {
	r, clk := newRing(1)
	// 1 MB at 1 MB/s = 1 s + 1 ms latency.
	r.QueueWrite(make([]byte, 1_000_000), 7)
	r.Submit()
	if got := r.Poll(nil, false); len(got) != 0 {
		t.Fatalf("completion surfaced before model time: %+v", got)
	}
	clk.Advance(500 * time.Millisecond)
	if got := r.Poll(nil, false); len(got) != 0 {
		t.Fatal("completion surfaced halfway through transfer")
	}
	clk.Advance(501 * time.Millisecond)
	got := r.Poll(nil, false)
	if len(got) != 1 {
		t.Fatal("completion missing after model time passed")
	}
	if got[0].Latency < time.Second {
		t.Fatalf("latency %v, want >= 1s", got[0].Latency)
	}
}

func TestBlockingPollSleeps(t *testing.T) {
	r, clk := newRing(1)
	r.QueueWrite(make([]byte, 1_000_000), 1)
	r.Submit()
	start := clk.Now()
	got := r.Poll(nil, true)
	if len(got) != 1 {
		t.Fatal("blocking poll returned nothing")
	}
	if clk.Now().Sub(start) < time.Second {
		t.Fatal("blocking poll did not advance the clock to completion time")
	}
}

func TestCompletionOrderByReadyTime(t *testing.T) {
	r, _ := newRing(2)
	// Big write on dev 0 completes after small write on dev 1.
	r.QueueWriteDev(0, make([]byte, 1_000_000), 100)
	r.QueueWriteDev(1, make([]byte, 1_000), 200)
	comps := r.WaitAll(nil)
	if len(comps) != 2 {
		t.Fatalf("got %d completions", len(comps))
	}
	if comps[0].UserData != 200 || comps[1].UserData != 100 {
		t.Fatalf("completions out of ready order: %v, %v", comps[0].UserData, comps[1].UserData)
	}
}

func TestErrorSurfacesInCompletion(t *testing.T) {
	r, _ := newRing(1)
	r.Array().SetFaultPlan(0, nvmesim.FaultPlan{Script: map[int64]nvmesim.FaultKind{1: nvmesim.FaultTransient}})
	r.QueueWrite(make([]byte, 512), 9)
	comps := r.WaitAll(nil)
	if len(comps) != 1 || comps[0].Err == nil {
		t.Fatalf("injected error not surfaced: %+v", comps)
	}
	// A read of a location whose write failed must error too.
	dst := make([]byte, 512)
	r.QueueRead(comps[0].Loc, dst, 10)
	comps = r.WaitAll(nil)
	if comps[0].Err == nil {
		t.Fatal("read of failed write did not error")
	}
}

func TestBufferOwnershipReturned(t *testing.T) {
	r, _ := newRing(1)
	buf := make([]byte, 512)
	r.QueueWrite(buf, 3)
	comps := r.WaitAll(nil)
	if &comps[0].Buf[0] != &buf[0] {
		t.Fatal("completion does not return the submitted buffer")
	}
}

func TestCounters(t *testing.T) {
	r, _ := newRing(1)
	loc, _ := r.QueueWrite(make([]byte, 1024), 1)
	r.WaitAll(nil)
	r.QueueRead(loc, make([]byte, 1024), 2)
	r.WaitAll(nil)
	d := r.Array().PerDevice()[0]
	if d.Writes != 1 || d.Reads != 1 || d.BytesWritten != 1024 || d.BytesRead != 1024 {
		t.Fatalf("device counters: %+v", d)
	}
}

func TestManyInflight(t *testing.T) {
	r, _ := newRing(4)
	const n = 256
	for i := 0; i < n; i++ {
		if _, err := r.QueueWrite(make([]byte, 4096), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	comps := r.WaitAll(nil)
	if len(comps) != n {
		t.Fatalf("got %d completions, want %d", len(comps), n)
	}
	seen := map[uint64]bool{}
	for _, c := range comps {
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if seen[c.UserData] {
			t.Fatalf("duplicate completion for %d", c.UserData)
		}
		seen[c.UserData] = true
	}
}

func TestQueueWriteSkipsDeadDevice(t *testing.T) {
	r, _ := newRing(3)
	r.Array().KillDevice(1)
	for i := 0; i < 6; i++ {
		loc, err := r.QueueWrite(make([]byte, 512), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if loc.Device() == 1 {
			t.Fatal("write striped onto a dead device")
		}
	}
	comps := r.WaitAll(nil)
	for _, c := range comps {
		if c.Err != nil {
			t.Fatalf("write on live device failed: %v", c.Err)
		}
	}
}

func TestQueueWriteAllDevicesDead(t *testing.T) {
	r, _ := newRing(2)
	r.Array().KillDevice(0)
	r.Array().KillDevice(1)
	if _, err := r.QueueWrite(make([]byte, 512), 1); !nvmesim.IsDeviceDead(err) {
		t.Fatalf("want device-dead error, got %v", err)
	}
}

func TestQueueWriteAllDevicesFull(t *testing.T) {
	full := spec
	full.Capacity = 512
	clk := nvmesim.NewVirtualClock(time.Unix(0, 0))
	r := New(nvmesim.New(2, full, clk))
	for i := 0; i < 2; i++ {
		if _, err := r.QueueWrite(make([]byte, 512), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := r.QueueWrite(make([]byte, 512), 9)
	if !errors.Is(err, nvmesim.ErrDeviceFull) {
		t.Fatalf("want ErrDeviceFull once every device is full, got %v", err)
	}
}

func TestPollCancelReturnsEarly(t *testing.T) {
	r, _ := newRing(1)
	r.QueueWrite(make([]byte, 1<<20), 1) // ~1s of modeled transfer
	r.Submit()
	r.SetCancel(func() bool { return true })
	comps := r.Poll(nil, true)
	if len(comps) != 0 {
		t.Fatalf("canceled poll reaped %d completions", len(comps))
	}
	if got := r.WaitAll(nil); len(got) != 0 {
		t.Fatalf("canceled WaitAll reaped %d completions", len(got))
	}
	r.SetCancel(nil)
	if got := r.WaitAll(nil); len(got) != 1 {
		t.Fatalf("after cancel cleared: %d completions", len(got))
	}
}

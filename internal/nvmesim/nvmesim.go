// Package nvmesim simulates an array of NVMe SSDs with a configurable
// bandwidth/latency timing model.
//
// The paper's testbed is 8× Kioxia CM7-R PCIe 5.0 drives (11 GB/s read,
// 6.2 GB/s write each) driven through io_uring. This reproduction has no
// NVMe hardware, and the published results depend on the *ratio* between
// CPU cost and I/O cost per byte (§4.4), not on absolute gigabytes per
// second. The simulator therefore stores page data in memory and makes
// completions visible only after a modeled delay:
//
//	start   = max(now, channelBusy)
//	busy    = start + size/bandwidth
//	readyAt = busy + latency
//
// Reads and writes occupy independent channels per device (NVMe is full
// duplex), and each device serializes its transfers — keeping many requests
// in flight saturates the modeled bandwidth, exactly the property io_uring
// exploits on real hardware. An engine thread that produces pages faster
// than the array drains them genuinely stalls, so CPU-bound versus I/O-bound
// behavior (Figures 8, 11, 12) emerges from execution rather than from a
// closed-form formula.
package nvmesim

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// BlockSize is the device block granularity. All offsets and sizes are
// multiples of this, mirroring the 512-byte sectors the paper's compact
// [device, offset, size] encoding relies on (§5.3).
const BlockSize = 512

// DeviceSpec describes one simulated SSD.
type DeviceSpec struct {
	// ReadBandwidth and WriteBandwidth are in bytes per second.
	ReadBandwidth  float64
	WriteBandwidth float64
	// Latency is the fixed per-request latency added after the transfer.
	Latency time.Duration
	// Capacity bounds the spill area in bytes; 0 means unbounded.
	Capacity int64
}

// Scaled returns a copy of the spec with bandwidths multiplied by f.
// The harness uses it to derive laptop-scale profiles from the paper's
// hardware numbers while preserving their shape.
func (s DeviceSpec) Scaled(f float64) DeviceSpec {
	s.ReadBandwidth *= f
	s.WriteBandwidth *= f
	return s
}

// KioxiaCM7 is the paper's per-device microbenchmark result: 11 GB/s read
// and 6.2 GB/s write at 64 KiB pages (§6.1).
var KioxiaCM7 = DeviceSpec{
	ReadBandwidth:  11e9,
	WriteBandwidth: 6.2e9,
	Latency:        100 * time.Microsecond,
}

// Errors returned by the array.
var (
	ErrBadRange    = errors.New("nvmesim: read of unwritten or out-of-bounds range")
	ErrDeviceFull  = errors.New("nvmesim: device spill area full")
	ErrBadDevice   = errors.New("nvmesim: device index out of range")
	ErrUnaligned   = errors.New("nvmesim: offset or size not block-aligned")
	ErrShortBuffer = errors.New("nvmesim: destination buffer shorter than stored data")
)

// device is one simulated SSD.
type device struct {
	spec DeviceSpec

	mu        sync.Mutex
	store     map[int64][]byte // offset -> written block (append-only until Reset)
	readBusy  time.Time        // read channel busy-until
	writeBusy time.Time        // write channel busy-until

	writeCursor atomic.Int64 // spill high-water mark; the paper's per-SSD counter (§5.1)

	// Spill allocation bookkeeping (lease.go): live extents by offset and
	// the sorted, coalesced free list below the write cursor. allocMu is
	// taken before mu when both are needed.
	allocMu   sync.Mutex
	allocs    map[int64]allocRec
	frees     []extent
	freeBytes int64 // total bytes in frees

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	reads        atomic.Int64
	writes       atomic.Int64

	// Fault injection state (fault.go).
	dead       atomic.Bool // permanent device failure
	faults     atomic.Pointer[faultState]
	readErrs   atomic.Int64
	writeErrs  atomic.Int64
	spikes     atomic.Int64
	corrupts   atomic.Int64 // silent bit flips applied
	tornWrites atomic.Int64 // writes that persisted only a prefix
	staleReads atomic.Int64 // reads served from the wrong block
}

// Array is a set of simulated SSDs sharing a clock.
type Array struct {
	devices    []*device
	clock      Clock
	liveLeases atomic.Int64 // leases created and not yet freed (lease.go)
}

// New returns an array of n identical devices.
func New(n int, spec DeviceSpec, clock Clock) *Array {
	if clock == nil {
		clock = RealClock{}
	}
	a := &Array{clock: clock}
	for i := 0; i < n; i++ {
		a.devices = append(a.devices, &device{
			spec:  spec,
			store: make(map[int64][]byte),
		})
	}
	return a
}

// Devices returns the number of devices in the array.
func (a *Array) Devices() int { return len(a.devices) }

// Clock returns the array's clock.
func (a *Array) Clock() Clock { return a.clock }

// AllocSpill reserves size bytes in device dev's spill area without a lease
// and returns the starting offset. Size is rounded up to the block size.
// Unleased allocations are never freed: they live as long as the array — the
// column store uses them for permanent table chunks; spill writers allocate through AllocSpillLease so
// query teardown can reclaim exactly its own extents.
func (a *Array) AllocSpill(dev int, size int) (int64, error) {
	return a.AllocSpillLease(dev, size, nil)
}

func alignUp(n int) int {
	return (n + BlockSize - 1) &^ (BlockSize - 1)
}

// Write stores data at offset on device dev and returns the simulated
// completion time. The data is copied at submission, so the caller may reuse
// its buffer immediately — but a realistic engine must not, because on real
// hardware the DMA reads the buffer until completion; the uring layer
// enforces the realistic discipline.
func (a *Array) Write(dev int, offset int64, data []byte) (time.Time, error) {
	if dev < 0 || dev >= len(a.devices) {
		return time.Time{}, ErrBadDevice
	}
	if offset%BlockSize != 0 {
		return time.Time{}, ErrUnaligned
	}
	d := a.devices[dev]
	err, spike, effect := d.injectFault(dev, "write")
	if err != nil {
		return a.clock.Now(), err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	switch effect.kind {
	case FaultCorrupt:
		// Silent bit rot: flip one deterministic bit of the stored copy.
		if len(cp) > 0 {
			bit := effect.r % uint64(len(cp)*8)
			cp[bit/8] ^= 1 << (bit % 8)
			d.corrupts.Add(1)
		}
	case FaultTorn:
		// Torn write: only the head of the block reached the media; the
		// tail reads back as zeroes. The write still reports success.
		if len(cp) > 1 {
			for i := len(cp) / 2; i < len(cp); i++ {
				cp[i] = 0
			}
			d.tornWrites.Add(1)
		}
	}

	now := a.clock.Now()
	d.mu.Lock()
	d.store[offset] = cp
	start := now
	if d.writeBusy.After(start) {
		start = d.writeBusy
	}
	busy := start.Add(transferTime(len(data), d.spec.WriteBandwidth))
	d.writeBusy = busy
	d.mu.Unlock()

	d.bytesWritten.Add(int64(len(data)))
	d.writes.Add(1)
	return busy.Add(d.spec.Latency).Add(spike), nil
}

// Read copies the block previously written at offset on device dev into dst
// and returns the simulated completion time. dst must be at least as long as
// the stored block; extra bytes are left untouched.
func (a *Array) Read(dev int, offset int64, dst []byte) (time.Time, int, error) {
	if dev < 0 || dev >= len(a.devices) {
		return time.Time{}, 0, ErrBadDevice
	}
	d := a.devices[dev]
	err, spike, effect := d.injectFault(dev, "read")
	if err != nil {
		return a.clock.Now(), 0, err
	}
	d.mu.Lock()
	block, ok := d.store[offset]
	if !ok {
		d.mu.Unlock()
		return time.Time{}, 0, ErrBadRange
	}
	if len(dst) < len(block) {
		d.mu.Unlock()
		return time.Time{}, 0, ErrShortBuffer
	}
	copy(dst, block)
	n := len(block)
	switch effect.kind {
	case FaultCorrupt:
		// Silent read corruption: the transfer "succeeds" with one bit
		// flipped in the returned buffer. The stored block is untouched.
		if n > 0 {
			bit := effect.r % uint64(n*8)
			dst[bit/8] ^= 1 << (bit % 8)
			d.corrupts.Add(1)
		}
	case FaultStale:
		// Misdirected read: serve the nearest other stored block instead
		// of the requested one (deterministic — greatest offset below the
		// target, else smallest above). With no other block written the
		// read degenerates to all-zero garbage.
		stale := d.staleBlockLocked(offset)
		for i := 0; i < n; i++ {
			dst[i] = 0
		}
		copy(dst[:n], stale)
		d.staleReads.Add(1)
	}
	now := a.clock.Now()
	start := now
	if d.readBusy.After(start) {
		start = d.readBusy
	}
	busy := start.Add(transferTime(n, d.spec.ReadBandwidth))
	d.readBusy = busy
	d.mu.Unlock()

	d.bytesRead.Add(int64(n))
	d.reads.Add(1)
	return busy.Add(d.spec.Latency).Add(spike), n, nil
}

// staleBlockLocked picks the block a misdirected read of offset would land
// on: the stored block at the greatest offset below the target, else the
// smallest offset above it, else nil. Both the choice and its contents are
// deterministic for a given store state. Caller holds d.mu.
func (d *device) staleBlockLocked(offset int64) []byte {
	bestBelow, bestAbove := int64(-1), int64(-1)
	for off := range d.store {
		if off == offset {
			continue
		}
		if off < offset {
			if off > bestBelow {
				bestBelow = off
			}
		} else if bestAbove < 0 || off < bestAbove {
			bestAbove = off
		}
	}
	if bestBelow >= 0 {
		return d.store[bestBelow]
	}
	if bestAbove >= 0 {
		return d.store[bestAbove]
	}
	return nil
}

func transferTime(n int, bw float64) time.Duration {
	if bw <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// Stats is a snapshot of array-wide I/O counters.
type Stats struct {
	BytesRead    int64
	BytesWritten int64
	SpillBytes   int64 // bytes currently allocated in spill areas
}

// Stats returns cumulative counters summed over all devices.
func (a *Array) Stats() Stats {
	var s Stats
	for _, d := range a.devices {
		s.BytesRead += d.bytesRead.Load()
		s.BytesWritten += d.bytesWritten.Load()
		s.SpillBytes += d.liveSpillBytes()
	}
	return s
}

// liveSpillBytes is the device's currently allocated spill footprint: the
// write cursor minus the free ranges below it.
func (d *device) liveSpillBytes() int64 {
	d.allocMu.Lock()
	n := d.writeCursor.Load() - d.freeBytes
	d.allocMu.Unlock()
	return n
}

// DeviceStats is a snapshot of one device's counters — the per-device
// refinement of Stats, exported for live observability endpoints.
type DeviceStats struct {
	// Cumulative transfer volume and request counts.
	BytesRead    int64
	BytesWritten int64
	Reads        int64
	Writes       int64
	// SpillBytes is the currently allocated (live) spill footprint: the
	// write cursor minus freed ranges awaiting reuse.
	SpillBytes int64
	// ReadBacklog/WriteBacklog approximate queue depth: how far the
	// channel's busy-until horizon lies beyond now (0 when idle). This is
	// the simulator's analogue of an NVMe submission queue backlog.
	ReadBacklog  time.Duration
	WriteBacklog time.Duration
	// Fault counters: injected or organic I/O errors and device death.
	ReadErrors  int64
	WriteErrors int64
	Dead        bool
}

// PerDevice returns a per-device counter snapshot, indexed by device id.
func (a *Array) PerDevice() []DeviceStats {
	now := a.clock.Now()
	out := make([]DeviceStats, len(a.devices))
	for i, d := range a.devices {
		s := DeviceStats{
			BytesRead:    d.bytesRead.Load(),
			BytesWritten: d.bytesWritten.Load(),
			Reads:        d.reads.Load(),
			Writes:       d.writes.Load(),
			SpillBytes:   d.liveSpillBytes(),
			ReadErrors:   d.readErrs.Load(),
			WriteErrors:  d.writeErrs.Load(),
			Dead:         d.dead.Load(),
		}
		d.mu.Lock()
		if d.readBusy.After(now) {
			s.ReadBacklog = d.readBusy.Sub(now)
		}
		if d.writeBusy.After(now) {
			s.WriteBacklog = d.writeBusy.Sub(now)
		}
		d.mu.Unlock()
		out[i] = s
	}
	return out
}

// ChannelBacklogs returns one device's modeled channel backlogs — how far
// its read and write busy-until horizons extend past now. Unlike PerDevice
// it allocates nothing, so the shared I/O scheduler and the metrics
// endpoint can sample it per device on hot paths.
func (a *Array) ChannelBacklogs(dev int) (read, write time.Duration) {
	if dev < 0 || dev >= len(a.devices) {
		return 0, 0
	}
	d := a.devices[dev]
	now := a.clock.Now()
	d.mu.Lock()
	if d.readBusy.After(now) {
		read = d.readBusy.Sub(now)
	}
	if d.writeBusy.After(now) {
		write = d.writeBusy.Sub(now)
	}
	d.mu.Unlock()
	return read, write
}

// MaxWriteBandwidth returns the array's aggregate write bandwidth in
// bytes/sec; used by the harness to report utilization.
func (a *Array) MaxWriteBandwidth() float64 {
	var bw float64
	for _, d := range a.devices {
		bw += d.spec.WriteBandwidth
	}
	return bw
}

// MaxReadBandwidth returns the array's aggregate read bandwidth in bytes/sec.
func (a *Array) MaxReadBandwidth() float64 {
	var bw float64
	for _, d := range a.devices {
		bw += d.spec.ReadBandwidth
	}
	return bw
}

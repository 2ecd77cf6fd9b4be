// Spill leases: per-query ownership of spill extents.
//
// The paper's engine treats the spill area as per-query scratch space; with
// one query at a time a whole-array Reset between queries is enough. Under
// concurrent queries that reset destroys another query's partitions, so the
// array instead tracks which lease (query) owns every allocated extent and
// frees exactly those extents when the lease is released. Freed space is
// returned to a per-device free list that later allocations reuse (first
// fit, coalescing, cursor shrink), so a long-running server's spill areas
// stay bounded by the peak concurrent footprint rather than growing with
// query count.
package nvmesim

import (
	"sort"
	"sync/atomic"
)

// allocRec is one live spill allocation on a device.
type allocRec struct {
	size  int64  // aligned size in bytes
	lease uint64 // owning lease id; 0 = unleased (permanent until Reset)
}

// extent is one free range in a device's spill area, [off, off+size).
type extent struct {
	off, size int64
}

// Lease identifies one owner of spill extents (typically one query). Extents
// allocated under a lease are freed together by Free; reads need no lease.
// A Lease is safe for concurrent use by the query's workers.
type Lease struct {
	arr *Array
	id  uint64

	liveBytes   atomic.Int64
	liveExtents atomic.Int64
	freed       atomic.Bool
}

// leaseIDs hands out process-wide unique lease ids (0 is reserved for
// unleased allocations).
var leaseIDs atomic.Uint64

// NewLease returns a fresh lease on the array's spill areas.
func (a *Array) NewLease() *Lease {
	a.liveLeases.Add(1)
	return &Lease{arr: a, id: leaseIDs.Add(1)}
}

// ID returns the lease's unique id.
func (l *Lease) ID() uint64 { return l.id }

// LiveBytes returns the bytes currently allocated under the lease.
func (l *Lease) LiveBytes() int64 { return l.liveBytes.Load() }

// LiveExtents returns the number of extents currently allocated under the
// lease.
func (l *Lease) LiveExtents() int64 { return l.liveExtents.Load() }

// Free releases every extent allocated under the lease, dropping the stored
// blocks and returning the space to the device free lists. Data already read
// (or with reads already submitted to the array) is unaffected: the array
// copies block contents at submission time. Free is idempotent.
func (l *Lease) Free() {
	if l == nil || l.freed.Swap(true) {
		return
	}
	for _, d := range l.arr.devices {
		d.freeLease(l.id)
	}
	l.liveBytes.Store(0)
	l.liveExtents.Store(0)
	l.arr.liveLeases.Add(-1)
}

// Leases returns the number of leases created and not yet freed.
func (a *Array) Leases() int64 { return a.liveLeases.Load() }

// LiveExtents returns the number of live spill allocations across all
// devices — leased and unleased. It returns to zero once every lease is
// freed and no unleased spill allocations remain.
func (a *Array) LiveExtents() int64 {
	var n int64
	for _, d := range a.devices {
		d.allocMu.Lock()
		n += int64(len(d.allocs))
		d.allocMu.Unlock()
	}
	return n
}

// LeaseLiveBytes returns the bytes currently allocated on the spill areas
// under each live lease, keyed by lease id (observability).
func (a *Array) LeaseLiveBytes() map[uint64]int64 {
	out := map[uint64]int64{}
	for _, d := range a.devices {
		d.allocMu.Lock()
		for _, rec := range d.allocs {
			if rec.lease != 0 {
				out[rec.lease] += rec.size
			}
		}
		d.allocMu.Unlock()
	}
	return out
}

// AllocSpillLease reserves size bytes in device dev's spill area under the
// given lease (nil = unleased, kept until Reset) and returns the starting
// offset. Size is rounded up to the block size. Freed extents are reused
// first fit; otherwise the allocation extends the device's write cursor —
// still the paper's single per-SSD coordination point (§5.1), now guarded by
// a short mutex so frees can coalesce.
func (a *Array) AllocSpillLease(dev int, size int, l *Lease) (int64, error) {
	if dev < 0 || dev >= len(a.devices) {
		return 0, ErrBadDevice
	}
	d := a.devices[dev]
	if d.dead.Load() {
		return 0, &DeviceError{Device: dev, Op: "alloc", Err: ErrDeviceDead}
	}
	n := int64(alignUp(size))
	var lease uint64
	if l != nil {
		lease = l.id
	}
	d.allocMu.Lock()
	off, err := d.allocLocked(dev, n)
	if err == nil {
		if d.allocs == nil {
			d.allocs = make(map[int64]allocRec)
		}
		d.allocs[off] = allocRec{size: n, lease: lease}
	}
	d.allocMu.Unlock()
	if err != nil {
		return 0, err
	}
	if l != nil {
		l.liveBytes.Add(n)
		l.liveExtents.Add(1)
	}
	return off, nil
}

// allocLocked finds space for an aligned n-byte allocation: first fit from
// the free list, else a cursor bump bounded by capacity. Caller holds
// d.allocMu.
func (d *device) allocLocked(dev int, n int64) (int64, error) {
	for i := range d.frees {
		if d.frees[i].size >= n {
			off := d.frees[i].off
			d.frees[i].off += n
			d.frees[i].size -= n
			if d.frees[i].size == 0 {
				d.frees = append(d.frees[:i], d.frees[i+1:]...)
			}
			d.freeBytes -= n
			return off, nil
		}
	}
	cur := d.writeCursor.Load()
	if d.spec.Capacity > 0 && cur+n > d.spec.Capacity {
		return 0, &DeviceError{Device: dev, Op: "alloc", Err: ErrDeviceFull}
	}
	d.writeCursor.Store(cur + n)
	return cur, nil
}

// freeLease drops every allocation owned by lease id on this device: the
// stored blocks are deleted and the ranges returned to the free list, which
// is kept sorted and coalesced; free space abutting the write cursor shrinks
// the cursor instead. Lock order is allocMu then mu, matching
// AllocSpillLease callers that take no mu at all.
func (d *device) freeLease(id uint64) {
	d.allocMu.Lock()
	var dropped []int64
	for off, rec := range d.allocs {
		if rec.lease == id {
			dropped = append(dropped, off)
		}
	}
	if len(dropped) == 0 {
		d.allocMu.Unlock()
		return
	}
	d.mu.Lock()
	for _, off := range dropped {
		delete(d.store, off)
	}
	d.mu.Unlock()
	for _, off := range dropped {
		d.freeExtentLocked(extent{off: off, size: d.allocs[off].size})
		delete(d.allocs, off)
	}
	d.shrinkCursorLocked()
	d.allocMu.Unlock()
}

// freeExtentLocked inserts ext into the sorted free list, merging with
// adjacent free ranges. Caller holds d.allocMu.
func (d *device) freeExtentLocked(ext extent) {
	i := sort.Search(len(d.frees), func(i int) bool { return d.frees[i].off >= ext.off })
	d.frees = append(d.frees, extent{})
	copy(d.frees[i+1:], d.frees[i:])
	d.frees[i] = ext
	d.freeBytes += ext.size
	// Merge with successor, then predecessor.
	if i+1 < len(d.frees) && d.frees[i].off+d.frees[i].size == d.frees[i+1].off {
		d.frees[i].size += d.frees[i+1].size
		d.frees = append(d.frees[:i+1], d.frees[i+2:]...)
	}
	if i > 0 && d.frees[i-1].off+d.frees[i-1].size == d.frees[i].off {
		d.frees[i-1].size += d.frees[i].size
		d.frees = append(d.frees[:i], d.frees[i+1:]...)
	}
}

// shrinkCursorLocked retracts the write cursor over trailing free space so
// the spill area's high-water mark tracks the live footprint. Caller holds
// d.allocMu.
func (d *device) shrinkCursorLocked() {
	if n := len(d.frees); n > 0 {
		top := d.frees[n-1]
		if top.off+top.size == d.writeCursor.Load() {
			d.writeCursor.Store(top.off)
			d.freeBytes -= top.size
			d.frees = d.frees[:n-1]
		}
	}
}

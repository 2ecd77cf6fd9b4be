package pages

import "sync"

// Buffer recycling for spill-restore I/O. Partition readers allocate one
// block buffer per read and one decompression buffer per compressed block;
// during a grace join or a spilled aggregation that is thousands of
// short-lived 16–64 KiB allocations per query. GetBuf/PutBuf route them
// through a process-wide sync.Pool instead, so steady-state restore reuses
// the same handful of buffers.
//
// Safety contract: a buffer must only be returned once its contents are
// provably dead — decoded pages alias read and decompression buffers, so
// the owner (e.g. core.PartitionScheduler) recycles them only when the
// consumer declares the whole partition consumed.

// minRecycleBuf keeps tiny buffers out of the pool: recycling them saves
// nothing and evicts usefully-sized ones.
const minRecycleBuf = 4 << 10

var bufPool sync.Pool

// GetBuf returns a byte slice of length n, reusing a recycled buffer when
// one with sufficient capacity is available. Contents are undefined.
func GetBuf(n int) []byte {
	if v := bufPool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this request; drop it rather than hold both.
	}
	return make([]byte, n)
}

// PutBuf makes a buffer available for reuse. The caller must not touch b
// afterwards.
func PutBuf(b []byte) {
	if cap(b) < minRecycleBuf {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

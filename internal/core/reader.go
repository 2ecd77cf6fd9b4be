package core

import (
	"fmt"

	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
)

// blockGroup is one staging block of a spilled partition and the page slots
// it holds; slots are grouped by block so each block is read and decoded
// exactly once.
type blockGroup struct {
	loc   nvmesim.Loc
	slots []SpilledSlot
	size  int    // decoded size: the sum of the slots' Len
	buf   []byte // read buffer, from queueing until the block is recycled
	// payload is the verified frame's encoded block, aliasing buf. dec is the
	// decoded block the slots index, set when the consumer reaches the
	// block's first page: payload itself for a raw block, else owned, a
	// recycler buffer.
	payload  []byte
	dec      []byte
	owned    []byte
	attempts int
	done     bool // the read completed (verified, or failed)
}

// DefaultReadDepth is the number of block reads a partition scheduler keeps in
// flight for each opened partition, and once more shared by the prefetch of
// every partition not yet opened (NewPartitionScheduler). Spilled partitions
// are read back by several workers at once, so a moderate depth already
// saturates the array's aggregate queue depth (§5.2: NVMe arrays need
// parallel, deep queues).
const DefaultReadDepth = 8

// maxReadAttempts bounds transient-error retries per block read.
const maxReadAttempts = 4

// decodeBlock decodes a verified block's payload, stored under scheme, into
// the size bytes its slots index. A raw block is the payload itself; a
// compressed one is decompressed into a recycler buffer, returned as owned
// for the caller to recycle once the block's pages are dead.
func decodeBlock(payload []byte, scheme codec.ID, size int) (dec, owned []byte, err error) {
	dec = payload
	if scheme != codec.None {
		c := codec.ByID(scheme)
		if c == nil {
			return nil, nil, fmt.Errorf("core: spilled block uses unknown codec %d", scheme)
		}
		owned = pages.GetBuf(size)
		if dec, err = c.Decompress(owned[:0], payload); err != nil {
			pages.PutBuf(owned)
			return nil, nil, fmt.Errorf("core: decompressing spilled block: %w", err)
		}
	}
	if len(dec) != size {
		pages.PutBuf(owned)
		return nil, nil, fmt.Errorf("core: spilled block decodes to %d bytes, its slots hold %d", len(dec), size)
	}
	return dec, owned, nil
}

// loadSlot returns a page view of slot s of the decoded block dec.
func loadSlot(dec []byte, s SpilledSlot) (*pages.Page, error) {
	end := int(s.Off) + int(s.Len)
	if end > len(dec) {
		return nil, fmt.Errorf("core: spilled slot %v exceeds its decoded block of %d bytes", s, len(dec))
	}
	p, err := pages.Load(dec[s.Off:end:end])
	if err != nil {
		return nil, fmt.Errorf("core: loading spilled page: %w", err)
	}
	return p, nil
}

package core

import (
	"fmt"

	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
)

// blockGroup is one staging block of a spilled partition and the page slots
// it holds; slots are grouped by block so each block is read exactly once.
type blockGroup struct {
	loc      nvmesim.Loc
	slots    []SpilledSlot
	buf      []byte // read buffer, from queueing until the block is recycled
	attempts int
	done     bool // the read completed (verified, or failed)
}

// DefaultReadDepth is the number of concurrent block reads a partition
// scheduler keeps in flight per opened partition (and once more for
// prefetch). Spilled partitions are read back by several workers at once, so
// a moderate depth already saturates the array's aggregate queue depth
// (§5.2: NVMe arrays need parallel, deep queues).
const DefaultReadDepth = 8

// maxReadAttempts bounds transient-error retries per block read.
const maxReadAttempts = 4

// decodeSlot decodes one staged page of a completed, verified block read. A
// raw page aliases buf; a compressed one is decompressed into a recycler
// buffer, returned as owned for the caller to recycle once the page is dead.
func decodeSlot(buf []byte, s SpilledSlot, pageSize int) (p *pages.Page, owned []byte, err error) {
	if int(s.Off)+int(s.Len) > len(buf) {
		return nil, nil, fmt.Errorf("core: spilled slot %v exceeds block bounds", s)
	}
	// The extent starts with the (already verified) integrity header; the
	// encoded page follows it.
	if s.Len < pages.FrameSize {
		return nil, nil, fmt.Errorf("core: spilled slot %v shorter than its frame header", s)
	}
	data := buf[s.Off+pages.FrameSize : s.Off+s.Len]
	block := data
	if s.Scheme != codec.None {
		c := codec.ByID(s.Scheme)
		if c == nil {
			return nil, nil, fmt.Errorf("core: spilled slot uses unknown codec %d", s.Scheme)
		}
		dec, err := c.Decompress(pages.GetBuf(pageSize)[:0], data)
		if err != nil {
			return nil, nil, fmt.Errorf("core: decompressing spilled page: %w", err)
		}
		block, owned = dec, dec[:cap(dec)]
	}
	p, err = pages.Load(block[:pageSize])
	if err != nil {
		pages.PutBuf(owned)
		return nil, nil, fmt.Errorf("core: loading spilled page: %w", err)
	}
	return p, owned, nil
}

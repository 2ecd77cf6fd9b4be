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
	buf      []byte
	attempts int
}

// DefaultReadDepth is the number of concurrent block reads a partition
// scheduler keeps in flight per opened partition (and once more for
// prefetch). Spilled partitions are read back by several workers at once, so
// a moderate depth already saturates the array's aggregate queue depth
// (§5.2: NVMe arrays need parallel, deep queues).
const DefaultReadDepth = 8

// maxReadAttempts bounds transient-error retries per block read.
const maxReadAttempts = 4

// decodeBlockSlots decodes the staged pages of one completed block read,
// appending page views to ready and any decompression buffers it draws from
// the recycler to owned (the block buffer itself is assumed to be tracked by
// the caller already).
func decodeBlockSlots(buf []byte, slots []SpilledSlot, pageSize int, ready []*pages.Page, owned [][]byte) ([]*pages.Page, [][]byte, error) {
	for _, s := range slots {
		if int(s.Off)+int(s.Len) > len(buf) {
			return ready, owned, fmt.Errorf("core: spilled slot %v exceeds block bounds", s)
		}
		data := buf[s.Off : s.Off+s.Len]
		if s.Seq != 0 {
			// Framed slot: the extent starts with the (already verified)
			// integrity header; the encoded page follows it.
			if len(data) < pages.FrameSize {
				return ready, owned, fmt.Errorf("core: framed slot %v shorter than its header", s)
			}
			data = data[pages.FrameSize:]
		}
		var block []byte
		if s.Scheme == codec.None {
			block = data
		} else {
			c := codec.ByID(s.Scheme)
			if c == nil {
				return ready, owned, fmt.Errorf("core: spilled slot uses unknown codec %d", s.Scheme)
			}
			dec, err := c.Decompress(pages.GetBuf(pageSize)[:0], data)
			if err != nil {
				return ready, owned, fmt.Errorf("core: decompressing spilled page: %w", err)
			}
			block = dec
			owned = append(owned, dec[:cap(dec)])
		}
		p, err := pages.Load(block[:pageSize])
		if err != nil {
			return ready, owned, fmt.Errorf("core: loading spilled page: %w", err)
		}
		ready = append(ready, p)
	}
	return ready, owned, nil
}

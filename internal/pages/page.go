// Package pages provides the fixed-size page abstraction underlying all
// materialization in the engine (paper §5.3 "Data format").
//
// Tuples are stored row-wise: fixed-size tuples consecutively like an array,
// variable-size tuples with a slotted layout. A page seals into a single
// self-describing block so that spilling a page is a single block write and
// reading it back is a single block read plus header parse — no per-tuple
// I/O, which is the whole point of page-granular spilling on NVMe (§3).
package pages

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// DefaultPageSize is the engine's internal page size. The paper uses 64 KiB
// pages because that is the sweet spot for NVMe array throughput (§6.1).
const DefaultPageSize = 64 << 10

// headerSize is the sealed-page header: tupleCount, dataEnd, fixedSize, flags
// (4 × uint32).
const headerSize = 16

const slotSize = 4 // one uint32 offset per variable-size tuple

// Layout flags.
const (
	flagFixed = 1 << iota
)

// ErrPageCorrupt reports a sealed block whose header is inconsistent.
var ErrPageCorrupt = errors.New("pages: corrupt sealed page")

// Page is a fixed-capacity, row-wise tuple container. It is not safe for
// concurrent use; the engine keeps pages thread-local during materialization.
//
// The backing buffer layout (established by Seal) is:
//
//	[0,16)            header
//	[16, dataEnd)     tuple bytes, growing forward
//	[slotStart, cap)  slot offsets (variable-size layout only), growing backward
type Page struct {
	buf       []byte // len == cap == page size
	dataEnd   int    // write cursor into buf
	slotStart int    // start of the slot array region (== cap(buf) when empty)
	tuples    int
	fixed     int // tuple size for fixed layout; 0 means slotted

	// Part is the partition this page belongs to, managed by Umami's
	// adaptive materialization. Pages written before partitioning was
	// enabled carry PartUnpartitioned.
	Part int
}

// PartUnpartitioned marks pages materialized before partitioning started.
const PartUnpartitioned = -1

// New returns an empty page of the given size using the slotted
// (variable-size tuple) layout.
func New(size int) *Page {
	p := &Page{buf: make([]byte, size)}
	p.Reset()
	return p
}

// NewFixed returns an empty page of the given size holding fixed-size tuples
// of tupleSize bytes each.
func NewFixed(size, tupleSize int) *Page {
	if tupleSize <= 0 || tupleSize > size-headerSize {
		panic(fmt.Sprintf("pages: invalid fixed tuple size %d for page size %d", tupleSize, size))
	}
	p := New(size)
	p.fixed = tupleSize
	return p
}

// SizeFor returns the size of the smallest slotted page that holds one tuple
// of n bytes.
func SizeFor(n int) int { return headerSize + n + slotSize }

// Reset clears the page for reuse, keeping its layout mode and buffer.
func (p *Page) Reset() {
	p.dataEnd = headerSize
	p.slotStart = len(p.buf)
	p.tuples = 0
	p.Part = PartUnpartitioned
}

// Size returns the page's total capacity in bytes.
func (p *Page) Size() int { return len(p.buf) }

// Tuples returns the number of tuples stored.
func (p *Page) Tuples() int { return p.tuples }

// FixedTupleSize returns the fixed tuple size, or 0 for the slotted layout.
func (p *Page) FixedTupleSize() int { return p.fixed }

// UsedBytes returns the bytes of payload plus slot array currently in use.
func (p *Page) UsedBytes() int {
	return p.dataEnd + (len(p.buf) - p.slotStart)
}

// HasSpace reports whether a tuple of n bytes fits.
func (p *Page) HasSpace(n int) bool {
	if p.fixed != 0 {
		return p.dataEnd+p.fixed <= len(p.buf)
	}
	return p.dataEnd+n+slotSize <= p.slotStart
}

// Append copies tuple into the page and returns the slice holding the copy,
// or false if the page is full. For fixed-layout pages the tuple must be
// exactly FixedTupleSize bytes.
func (p *Page) Append(tuple []byte) ([]byte, bool) {
	n := len(tuple)
	if p.fixed != 0 {
		if n != p.fixed {
			panic(fmt.Sprintf("pages: tuple size %d on fixed-%d page", n, p.fixed))
		}
		if p.dataEnd+n > len(p.buf) {
			return nil, false
		}
		dst := p.buf[p.dataEnd : p.dataEnd+n]
		copy(dst, tuple)
		p.dataEnd += n
		p.tuples++
		return dst, true
	}
	if p.dataEnd+n+slotSize > p.slotStart {
		return nil, false
	}
	dst := p.buf[p.dataEnd : p.dataEnd+n]
	copy(dst, tuple)
	p.slotStart -= slotSize
	binary.LittleEndian.PutUint32(p.buf[p.slotStart:], uint32(p.dataEnd))
	p.dataEnd += n
	p.tuples++
	return dst, true
}

// Alloc reserves n bytes for a tuple and returns the slice to fill in place,
// or false if the page is full. Operators that assemble tuples field-by-field
// (e.g. the aggregation's in-page groups, §4.6) use this to avoid a copy.
func (p *Page) Alloc(n int) ([]byte, bool) {
	if p.fixed != 0 {
		if n != p.fixed {
			panic(fmt.Sprintf("pages: alloc size %d on fixed-%d page", n, p.fixed))
		}
		if p.dataEnd+n > len(p.buf) {
			return nil, false
		}
		dst := p.buf[p.dataEnd : p.dataEnd+n]
		p.dataEnd += n
		p.tuples++
		return dst, true
	}
	if p.dataEnd+n+slotSize > p.slotStart {
		return nil, false
	}
	dst := p.buf[p.dataEnd : p.dataEnd+n]
	p.slotStart -= slotSize
	binary.LittleEndian.PutUint32(p.buf[p.slotStart:], uint32(p.dataEnd))
	p.dataEnd += n
	p.tuples++
	return dst, true
}

// Tuple returns the i-th tuple. It panics if i is out of range.
func (p *Page) Tuple(i int) []byte {
	if i < 0 || i >= p.tuples {
		panic(fmt.Sprintf("pages: tuple index %d out of range [0,%d)", i, p.tuples))
	}
	if p.fixed != 0 {
		off := headerSize + i*p.fixed
		return p.buf[off : off+p.fixed]
	}
	start := p.slotOffset(i)
	end := p.dataEnd
	if i+1 < p.tuples {
		end = p.slotOffset(i + 1)
	}
	return p.buf[start:end]
}

// Bytes returns the page's backing block. Together with Offset it lets a hash
// table keep a tuple as (page, offset) — eight bytes without a pointer — and
// reach its fields at Bytes()[Offset(i):] with one bounds check. The row
// codec never needs the tuple's end: fields are addressed from its start.
func (p *Page) Bytes() []byte { return p.buf }

// Offset returns where the i-th tuple starts in Bytes().
func (p *Page) Offset(i int) int {
	if p.fixed != 0 {
		return headerSize + i*p.fixed
	}
	return p.slotOffset(i)
}

func (p *Page) slotOffset(i int) int {
	// Slot array grows backward: slot i lives at cap - (i+1)*slotSize.
	pos := len(p.buf) - (i+1)*slotSize
	return int(binary.LittleEndian.Uint32(p.buf[pos:]))
}

// Seal writes the header and returns the full backing block, ready to be
// written to storage (optionally compressed first). The page remains usable
// read-only afterwards.
func (p *Page) Seal() []byte {
	flags := uint32(0)
	if p.fixed != 0 {
		flags |= flagFixed
	}
	binary.LittleEndian.PutUint32(p.buf[0:], uint32(p.tuples))
	binary.LittleEndian.PutUint32(p.buf[4:], uint32(p.dataEnd))
	binary.LittleEndian.PutUint32(p.buf[8:], uint32(p.fixed))
	binary.LittleEndian.PutUint32(p.buf[12:], flags)
	return p.buf
}

// Load re-creates a page view over a sealed block (as produced by Seal).
// The block is aliased, not copied.
func Load(block []byte) (*Page, error) {
	if len(block) < headerSize {
		return nil, ErrPageCorrupt
	}
	tuples := int(binary.LittleEndian.Uint32(block[0:]))
	dataEnd := int(binary.LittleEndian.Uint32(block[4:]))
	fixed := int(binary.LittleEndian.Uint32(block[8:]))
	flags := binary.LittleEndian.Uint32(block[12:])
	p := &Page{buf: block, dataEnd: dataEnd, tuples: tuples, fixed: fixed, Part: PartUnpartitioned}
	if flags&flagFixed == 0 {
		p.fixed = 0
		p.slotStart = len(block) - tuples*slotSize
	} else {
		p.slotStart = len(block)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Page) validate() error {
	if p.dataEnd < headerSize || p.dataEnd > len(p.buf) || p.tuples < 0 || p.slotStart < 0 {
		return ErrPageCorrupt
	}
	if p.fixed != 0 {
		if p.fixed < 0 || headerSize+p.tuples*p.fixed != p.dataEnd {
			return ErrPageCorrupt
		}
		return nil
	}
	if p.slotStart < p.dataEnd {
		return ErrPageCorrupt
	}
	// Slot offsets must be monotonically increasing within the data region.
	prev := headerSize
	for i := 0; i < p.tuples; i++ {
		off := p.slotOffset(i)
		if off < prev || off > p.dataEnd {
			return ErrPageCorrupt
		}
		prev = off
	}
	return nil
}

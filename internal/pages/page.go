// Package pages provides the page abstraction underlying all
// materialization in the engine (paper §5.3 "Data format").
//
// Tuples are stored row-wise in a slotted layout: tuple bytes grow forward
// from the header, one offset per tuple grows backward from the end. A page
// seals into a single self-describing block so that spilling a page is a
// single block write and reading it back is a single block read plus header
// parse — no per-tuple I/O, which is the whole point of page-granular
// spilling on NVMe (§3).
package pages

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// DefaultPageSize is the engine's internal page size. The paper uses 64 KiB
// pages because that is the sweet spot for NVMe array throughput (§6.1).
const DefaultPageSize = 64 << 10

// headerSize is the sealed-page header: tupleCount, dataEnd (2 × uint32).
const headerSize = 8

const slotSize = 4 // one uint32 offset per tuple

// ErrPageCorrupt reports a sealed block whose header is inconsistent.
var ErrPageCorrupt = errors.New("pages: corrupt sealed page")

// Page is a bounded, row-wise tuple container. It is not safe for
// concurrent use; the engine keeps pages thread-local during materialization.
//
// The backing buffer layout (established by Seal) is:
//
//	[0,8)             header
//	[8, dataEnd)      tuple bytes, growing forward
//	[slotStart, cap)  slot offsets, growing backward
type Page struct {
	buf       []byte // len == cap == page size
	dataEnd   int    // write cursor into buf
	slotStart int    // start of the slot array region (== cap(buf) when empty)
	tuples    int

	// Part is the partition this page belongs to, managed by Umami's
	// adaptive materialization. Pages written before partitioning was
	// enabled carry PartUnpartitioned.
	Part int
}

// PartUnpartitioned marks pages materialized before partitioning started.
const PartUnpartitioned = -1

// New returns an empty page of the given size.
func New(size int) *Page { return newOn(make([]byte, size)) }

// pageStructs recycles the Page structs themselves: a partitioned operator
// takes one per page it fills, as many as it takes buffers.
var pageStructs FreeList[Page]

// newOn returns an empty page over buf, a recycled Page when there is one.
// buf's contents are not read: Reset makes the page empty.
func newOn(buf []byte) *Page {
	if len(buf) < headerSize {
		panic(fmt.Sprintf("pages: page size %d is below the %d-byte header", len(buf), headerSize))
	}
	p := pageStructs.Get()
	if p == nil {
		p = &Page{}
	}
	p.buf = buf
	p.Reset()
	return p
}

// Recycle hands the page's buffer, and the page, back to the recycler once no
// tuple on it can be read any more. The caller must not touch the page
// afterwards: the next New or Pool.Get may hand it to another owner. A view
// that still aliases the buffer reads whatever its next owner writes there
// (poison, in race-detector builds).
func (p *Page) Recycle() {
	if p.buf == nil {
		return
	}
	PutBuf(p.buf)
	p.buf, p.dataEnd, p.slotStart, p.tuples = nil, 0, 0, 0
	pageStructs.Put(p)
}

// Reset clears the page for reuse, keeping its buffer.
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

// UsedBytes returns the bytes of payload plus slot array currently in use.
func (p *Page) UsedBytes() int {
	return p.dataEnd + (len(p.buf) - p.slotStart)
}

// HasSpace reports whether a tuple of n bytes fits.
func (p *Page) HasSpace(n int) bool { return p.dataEnd+n+slotSize <= p.slotStart }

// Append copies tuple into the page and returns the slice holding the copy,
// or false if the page is full.
func (p *Page) Append(tuple []byte) ([]byte, bool) {
	dst, ok := p.Alloc(len(tuple))
	copy(dst, tuple)
	return dst, ok
}

// Alloc reserves n bytes for a tuple and returns the slice to fill in place,
// or false if the page is full. Operators that assemble tuples field-by-field
// (e.g. the aggregation's in-page groups, §4.6) use this to avoid a copy.
func (p *Page) Alloc(n int) ([]byte, bool) {
	end := p.dataEnd + n
	if end+slotSize > p.slotStart {
		return nil, false
	}
	p.slotStart -= slotSize
	binary.LittleEndian.PutUint32(p.buf[p.slotStart:], uint32(p.dataEnd))
	dst := p.buf[p.dataEnd:end:end]
	p.dataEnd = end
	p.tuples++
	return dst, true
}

// AllocRun reserves consecutive tuples of the given sizes, in order, as many
// as fit, and sets dsts[i] to the i-th one's bytes, to be filled in place. It
// returns how many it reserved. It is Alloc over a whole run: one loop and one
// header update for the tuples a page takes at a time.
func (p *Page) AllocRun(sizes []int, dsts [][]byte) int {
	buf, end, slot := p.buf, p.dataEnd, p.slotStart
	n := 0
	for _, size := range sizes {
		next := end + size
		if next+slotSize > slot {
			break
		}
		slot -= slotSize
		binary.LittleEndian.PutUint32(buf[slot:], uint32(end))
		dsts[n] = buf[end:next:next]
		end = next
		n++
	}
	p.dataEnd, p.slotStart = end, slot
	p.tuples += n
	return n
}

// Tuple returns the i-th tuple. It panics if i is out of range.
func (p *Page) Tuple(i int) []byte {
	if i < 0 || i >= p.tuples {
		panic(fmt.Sprintf("pages: tuple index %d out of range [0,%d)", i, p.tuples))
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
func (p *Page) Offset(i int) int { return p.slotOffset(i) }

func (p *Page) slotOffset(i int) int {
	// Slot array grows backward: slot i lives at cap - (i+1)*slotSize.
	pos := len(p.buf) - (i+1)*slotSize
	return int(binary.LittleEndian.Uint32(p.buf[pos:]))
}

// Seal writes the header and returns the full backing block, ready to be
// written to storage (optionally compressed first). The page remains usable
// read-only afterwards.
func (p *Page) Seal() []byte {
	p.writeHeader()
	return p.buf
}

// AppendSealed appends the page's sealed form without the gap between its
// tuple bytes and its slot array: header and tuples, then the slots. That is
// UsedBytes() bytes, and Load reads it like a full sealed block (it finds
// the slots at the end of whatever block it is given). A recycled page's gap
// holds an earlier owner's bytes, which must not reach a codec or a device.
func (p *Page) AppendSealed(dst []byte) []byte {
	p.writeHeader()
	dst = append(dst, p.buf[:p.dataEnd]...)
	return append(dst, p.buf[p.slotStart:]...)
}

func (p *Page) writeHeader() {
	binary.LittleEndian.PutUint32(p.buf[0:], uint32(p.tuples))
	binary.LittleEndian.PutUint32(p.buf[4:], uint32(p.dataEnd))
}

// Load re-creates a page view over a sealed block (as produced by Seal or
// AppendSealed). The block is aliased, not copied. The block comes off a
// device, so nothing in it is trusted: every offset a Tuple call will slice
// with is checked here.
func Load(block []byte) (*Page, error) {
	if len(block) < headerSize {
		return nil, ErrPageCorrupt
	}
	tuples := int(binary.LittleEndian.Uint32(block[0:]))
	dataEnd := int(binary.LittleEndian.Uint32(block[4:]))
	p := &Page{buf: block, dataEnd: dataEnd, tuples: tuples, slotStart: len(block) - tuples*slotSize, Part: PartUnpartitioned}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Page) validate() error {
	if p.dataEnd < headerSize || p.dataEnd > len(p.buf) || p.tuples < 0 || p.slotStart < p.dataEnd {
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

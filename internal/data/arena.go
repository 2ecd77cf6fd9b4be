package data

import "unsafe"

// arenaChunkSize is the allocation granularity of a ByteArena. 64 KiB
// amortizes one heap allocation over thousands of TPC-H-sized strings. An
// arena's chunks start at arenaFirstChunk and double up to it, so that the
// many arenas that intern a few strings each (a worker's of an 8-row ORDER
// BY, of a join that matched little) do not cost 64 KiB apiece.
const (
	arenaChunkSize  = 64 << 10
	arenaFirstChunk = 1 << 10
)

// ByteArena is a bump allocator for variable-length values restored from
// spilled or materialized tuples. Interning through an arena replaces one
// heap allocation per string with one per chunk of up to 64 KiB, and — just as
// important for recycling — it decouples the interned value from the page
// buffer it was decoded out of: once every consumer interns what it keeps,
// page buffers can be returned to the recycler without dangling strings.
//
// Lifetime: a chunk stays reachable exactly as long as any string interned
// into it, via the string's pointer — the arena itself only references the
// current chunk. Arenas are not safe for concurrent use; operators keep one
// per worker.
type ByteArena struct {
	buf []byte
}

// InternBytes copies b into the arena and returns it as a string without a
// per-call allocation. Values larger than a quarter chunk get their own
// allocation so a single huge string cannot strand a mostly-empty chunk.
func (a *ByteArena) InternBytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > arenaChunkSize/4 {
		return string(b)
	}
	if len(a.buf)+len(b) > cap(a.buf) {
		a.grow(len(b))
	}
	n := len(a.buf)
	a.buf = append(a.buf, b...)
	s := a.buf[n : n+len(b)]
	return unsafe.String(&s[0], len(s))
}

// Copy copies b into the arena and returns the copy as a byte slice. The
// returned slice must be treated as immutable: it shares a chunk with other
// interned values and with strings handed out by InternBytes.
func (a *ByteArena) Copy(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if len(b) > arenaChunkSize/4 {
		return append([]byte(nil), b...)
	}
	if len(a.buf)+len(b) > cap(a.buf) {
		a.grow(len(b))
	}
	n := len(a.buf)
	a.buf = append(a.buf, b...)
	return a.buf[n : n+len(b) : n+len(b)]
}

// grow starts a chunk that holds at least n bytes (n <= arenaChunkSize/4):
// twice the last one, from arenaFirstChunk up to arenaChunkSize.
func (a *ByteArena) grow(n int) {
	size := min(max(2*cap(a.buf), arenaFirstChunk), arenaChunkSize)
	for size < n {
		size *= 2
	}
	a.buf = make([]byte, 0, size)
}

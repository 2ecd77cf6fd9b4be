package data

import "unsafe"

// arenaChunkSize is the allocation granularity of a ByteArena. 64 KiB
// amortizes one heap allocation over thousands of TPC-H-sized strings.
const arenaChunkSize = 64 << 10

// ByteArena is a bump allocator for variable-length values restored from
// spilled or materialized tuples. Interning through an arena replaces one
// heap allocation per string with one per 64 KiB chunk, and — just as
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
		a.buf = make([]byte, 0, arenaChunkSize)
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
		a.buf = make([]byte, 0, arenaChunkSize)
	}
	n := len(a.buf)
	a.buf = append(a.buf, b...)
	return a.buf[n : n+len(b) : n+len(b)]
}

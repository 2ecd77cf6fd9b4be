package pages

import (
	"encoding/binary"
	"fmt"

	"github.com/spilly-db/spilly/internal/xhash"
)

// Spill block frames.
//
// Spilled pages live on a raw block device with no filesystem underneath,
// so nothing below the engine detects bit rot, torn writes, or misdirected
// reads — a corrupted page would decompress (or not) into wrong tuples and
// flow silently into results. The spill writer therefore writes every
// staging block — its raw pages, compressed as one unit when compression is
// on — as the payload of one small frame:
//
//	offset  size  field
//	0       4     magic   0x53504C46 ("SPLF")
//	4       4     seq     engine-unique block sequence number
//	8       4     part    owning partition id (+1; 0 = unpartitioned)
//	12      4     len     payload length in bytes
//	16      8     sum     xhash64(payload, seed=seq)
//
// The checksum seed is the sequence number, so two identical payloads
// written as different blocks still carry different sums — a stale read
// that serves a perfectly valid *other* frame is caught by the seq check
// first and by the sum even if an attacker-grade coincidence matched seq.
// Verification happens in the readback cursors before any byte reaches a
// decompressor or consumer.

// FrameSize is the fixed frame header length in bytes.
const FrameSize = 24

// frameMagic marks the start of a spill page frame ("SPLF").
const frameMagic = 0x53504C46

// AppendFrame appends a frame header followed by payload to buf and
// returns the extended slice. part is the owning partition (-1 for
// unpartitioned spill); seq must be unique per engine run.
func AppendFrame(buf []byte, part int, seq uint32, payload []byte) []byte {
	var h [FrameSize]byte
	binary.LittleEndian.PutUint32(h[0:], frameMagic)
	binary.LittleEndian.PutUint32(h[4:], seq)
	binary.LittleEndian.PutUint32(h[8:], uint32(part+1))
	binary.LittleEndian.PutUint32(h[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(h[16:], xhash.Bytes(payload, uint64(seq)))
	buf = append(buf, h[:]...)
	return append(buf, payload...)
}

// FrameError reports a spill frame that failed verification. It is the
// signal that the stored page differs from what the writer framed — bit
// rot, a torn write, or a misdirected read — and that reconstruction
// should be attempted before failing the query.
type FrameError struct {
	Reason string
	Part   int    // partition the reader expected
	Seq    uint32 // sequence number the reader expected
}

// Error implements error.
func (e *FrameError) Error() string {
	return fmt.Sprintf("pages: spill frame part %d seq %d: %s", e.Part, e.Seq, e.Reason)
}

// VerifyFrame checks the frame at the start of b against the slot identity
// the reader expects and returns the enclosed payload. part < 0 skips the
// partition check (readers that don't know the partition yet). The payload
// aliases b; callers must copy if they outlive the block buffer.
func VerifyFrame(b []byte, part int, seq uint32) ([]byte, error) {
	fail := func(format string, args ...any) ([]byte, error) {
		return nil, &FrameError{Reason: fmt.Sprintf(format, args...), Part: part, Seq: seq}
	}
	if len(b) < FrameSize {
		return fail("short frame: %d bytes", len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != frameMagic {
		return fail("bad magic %#x", m)
	}
	if s := binary.LittleEndian.Uint32(b[4:]); s != seq {
		return fail("sequence mismatch: stored %d", s)
	}
	if p := int(binary.LittleEndian.Uint32(b[8:])) - 1; part >= 0 && p != part {
		return fail("partition mismatch: stored %d", p)
	}
	n := int(binary.LittleEndian.Uint32(b[12:]))
	if n < 0 || FrameSize+n > len(b) {
		return fail("payload length %d exceeds block", n)
	}
	payload := b[FrameSize : FrameSize+n]
	want := binary.LittleEndian.Uint64(b[16:])
	if got := xhash.Bytes(payload, uint64(seq)); got != want {
		return fail("checksum mismatch: stored %016x computed %016x", want, got)
	}
	return payload, nil
}

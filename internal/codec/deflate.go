package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
)

// deflateCodec wraps stdlib compress/flate. Its levels stand in for the
// paper's ZSTD settings: a dictionary-window entropy-coded scheme that is
// slower but compresses better than the LZ4 family (see DESIGN.md for the
// substitution rationale). Frame: uvarint decompressed length + raw DEFLATE
// stream.
type deflateCodec struct {
	id    ID
	name  string
	level int
	pool  sync.Pool // *deflater
}

// deflater is a pooled DEFLATE encoder: a flate writer, reset per call, that
// compresses straight into the caller's dst through out.
type deflater struct {
	out appender
	w   *flate.Writer
}

// appender is an io.Writer that appends to a byte slice.
type appender struct{ b []byte }

func (a *appender) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

func newDeflate(id ID, name string, level int) *deflateCodec {
	return &deflateCodec{id: id, name: name, level: level}
}

func init() {
	register(newDeflate(Deflate1, "deflate-1", 1))
	register(newDeflate(Deflate3, "deflate-3", 3))
	register(newDeflate(Deflate6, "deflate-6", 6))
	register(newDeflate(Deflate9, "deflate-9", 9))
}

func (c *deflateCodec) ID() ID       { return c.id }
func (c *deflateCodec) Name() string { return c.name }

func (c *deflateCodec) Compress(dst, src []byte) []byte {
	d, _ := c.pool.Get().(*deflater)
	if d == nil {
		d = &deflater{}
		w, err := flate.NewWriter(&d.out, c.level)
		if err != nil {
			panic(fmt.Sprintf("codec: flate.NewWriter(%d): %v", c.level, err))
		}
		d.w = w
	} else {
		d.w.Reset(&d.out)
	}
	d.out.b = binary.AppendUvarint(dst, uint64(len(src)))
	if _, err := d.w.Write(src); err != nil {
		panic(fmt.Sprintf("codec: flate write to memory failed: %v", err))
	}
	if err := d.w.Close(); err != nil {
		panic(fmt.Sprintf("codec: flate close failed: %v", err))
	}
	dst, d.out.b = d.out.b, nil // the pool must not keep the caller's buffer
	c.pool.Put(d)
	return dst
}

func (c *deflateCodec) Decompress(dst, src []byte) ([]byte, error) {
	want, n := binary.Uvarint(src)
	if n <= 0 {
		return dst, ErrCorrupt
	}
	return inflate(dst, src[n:], want)
}

// inflater is a pooled raw-DEFLATE decoder: a flate reader, which keeps its
// 32 KiB window across Resets, and the bytes.Reader it decodes from.
type inflater struct {
	src bytes.Reader
	r   io.ReadCloser // a flate.Resetter as well
}

var inflaters = sync.Pool{New: func() any {
	f := &inflater{}
	f.r = flate.NewReader(&f.src)
	return f
}}

// maxInflateRatio bounds how far DEFLATE can expand its input (1032:1, a
// 258-byte match in two bits), so a corrupt stored length cannot make
// inflate allocate more than the stream could fill.
const maxInflateRatio = 1032

// inflate appends to dst the want bytes the raw DEFLATE stream src decodes
// to. It inflates straight into dst, grown once to fit, with a pooled
// decoder; a stream that ends early, runs long or fails to decode is
// ErrCorrupt.
func inflate(dst, src []byte, want uint64) ([]byte, error) {
	if want > uint64(len(src))*maxInflateRatio {
		return dst, ErrCorrupt
	}
	base := len(dst)
	out := slices.Grow(dst, int(want))[:base+int(want)]
	f := inflaters.Get().(*inflater)
	defer func() {
		f.src.Reset(nil)
		inflaters.Put(f)
	}()
	f.src.Reset(src)
	if err := f.r.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return dst, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if _, err := io.ReadFull(f.r, out[base:]); err != nil {
		return dst, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// The stream must end where the stored length says.
	var more [1]byte
	if n, err := f.r.Read(more[:]); n != 0 || err != io.EOF {
		return dst, ErrCorrupt
	}
	return out, nil
}

// Package codec provides the general-purpose page compression schemes used
// by Umami's self-regulating compression (paper §4.4).
//
// The paper evaluates LZ4, Snappy, ZSTD, and BZ2 through their open-source
// libraries and finds a smooth cost/ratio trade-off curve (Figure 3). This
// stdlib-only reproduction builds the same curve from four families:
//
//   - lz4-*: a from-scratch LZ4-block-format codec with a fast path
//     (acceleration settings) and a high-compression path (chained match
//     search depths) — the paper's multiple LZ4 settings.
//   - snappy: a from-scratch Snappy-format-style codec — one fixed setting,
//     off the pareto frontier exactly as the paper finds.
//   - deflate-*: a from-scratch whole-block raw-DEFLATE (RFC 1951) encoder
//     and decoder at levels 1, 3, 6 and 9, standing in for ZSTD's settings
//     (documented substitution, see DESIGN.md). It works slice to slice on
//     the block the spill path holds; compress/flate is only the tests'
//     oracle.
//   - bwt: a from-scratch Burrows-Wheeler block-sorting compressor
//     (BWT + move-to-front, with the DEFLATE encoder as entropy stage),
//     standing in for BZ2: very high cost, high ratio, excluded from the
//     unified scale.
//
// All codecs are self-framing: Decompress needs no out-of-band length.
package codec

import (
	"errors"
	"fmt"
)

// ErrCorrupt reports an undecodable compressed block.
var ErrCorrupt = errors.New("codec: corrupt compressed data")

// ID identifies a codec in spilled-page slot headers (§5.3). IDs are
// persisted inside staging areas and must not be renumbered.
type ID uint8

// The codec registry. None means the page bytes are stored raw.
const (
	None ID = iota
	LZ4Fastest
	LZ4Fast
	LZ4Default
	LZ4HC4
	LZ4HC16
	LZ4HC64
	Snappy
	Deflate1
	Deflate3
	Deflate6
	Deflate9
	BWT
	numIDs
)

// Codec compresses and decompresses blocks. Implementations are safe for
// concurrent use.
type Codec interface {
	// ID returns the codec's persistent identifier.
	ID() ID
	// Name returns a short human-readable name, e.g. "lz4-hc16".
	Name() string
	// Compress appends the compressed form of src to dst and returns the
	// extended slice. The output may be larger than src for incompressible
	// input.
	Compress(dst, src []byte) []byte
	// Decompress appends the decompressed form of src to dst. It returns
	// ErrCorrupt (possibly wrapped) for invalid input.
	Decompress(dst, src []byte) ([]byte, error)
}

var registry [numIDs]Codec

func register(c Codec) {
	if registry[c.ID()] != nil {
		panic(fmt.Sprintf("codec: duplicate registration of id %d", c.ID()))
	}
	registry[c.ID()] = c
}

// ByID returns the codec with the given id, or nil for None/unknown ids.
func ByID(id ID) Codec {
	if id >= numIDs {
		return nil
	}
	return registry[id]
}

// ByName returns the codec with the given name, or nil.
func ByName(name string) Codec {
	for _, c := range registry {
		if c != nil && c.Name() == name {
			return c
		}
	}
	return nil
}

// All returns every registered codec, ordered by ID.
func All() []Codec {
	out := make([]Codec, 0, numIDs)
	for _, c := range registry {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

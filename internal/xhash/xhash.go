// Package xhash provides the fast, high-quality 64-bit hashing used
// throughout the engine: for hash tables, HyperLogLog sketches, and —
// critically — for Umami's adaptive partitioning, which requires that the
// high bits of the hash be of full quality because partition numbers are a
// *prefix* of the hash value (see internal/core and paper §5.3).
//
// The implementation is a from-scratch wyhash-style mix construction built
// only on 64×64→128-bit multiplication (math/bits.Mul64). It passes basic
// avalanche sanity checks (see tests) and is allocation-free.
package xhash

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Arbitrary odd 64-bit constants with good bit dispersion (wyhash secrets).
const (
	secret0 = 0xa0761d6478bd642f
	secret1 = 0xe7037ed1a0b428db
	secret2 = 0x8ebc6af09c88c6e3
	secret3 = 0x589965cc75374cc3
)

// mix folds a 128-bit product of a and b back to 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// U64 hashes a single 64-bit value with the given seed. The construction is
// a seeded murmur3-style finalizer followed by a wyhash mix; both the high
// bits (consumed by Umami partitioning) and the low bits (consumed by the
// HyperLogLog sketches) are full quality.
func U64(x, seed uint64) uint64 {
	x ^= seed * secret0
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return mix(x^secret1, seed^secret2)
}

// Combine merges two 64-bit hashes into one, order-dependently. It is used
// to build multi-column keys.
func Combine(h1, h2 uint64) uint64 {
	return mix(h1^secret2, h2^secret3)
}

// CombineU64s folds U64(xs[i], seed) into hs[i] for every i — the batch
// kernel behind column-at-a-time key hashing. Equivalent to calling
// Combine(hs[i], U64(uint64(xs[i]), seed)) per element, but the type
// dispatch and call overhead are hoisted out of the loop.
func CombineU64s(hs []uint64, xs []int64, seed uint64) {
	if len(xs) > len(hs) {
		panic("xhash: CombineU64s length mismatch")
	}
	for i, x := range xs {
		hs[i] = Combine(hs[i], U64(uint64(x), seed))
	}
}

// CombineF64s is CombineU64s over the IEEE-754 bit patterns of floats.
func CombineF64s(hs []uint64, xs []float64, seed uint64) {
	if len(xs) > len(hs) {
		panic("xhash: CombineF64s length mismatch")
	}
	for i, x := range xs {
		hs[i] = Combine(hs[i], U64(math.Float64bits(x), seed))
	}
}

// CombineStrings folds String(xs[i], seed) into hs[i] for every i.
func CombineStrings(hs []uint64, xs []string, seed uint64) {
	if len(xs) > len(hs) {
		panic("xhash: CombineStrings length mismatch")
	}
	for i, x := range xs {
		hs[i] = Combine(hs[i], String(x, seed))
	}
}

// Bytes hashes an arbitrary byte slice with the given seed.
func Bytes(data []byte, seed uint64) uint64 {
	n := len(data)
	seed ^= secret0
	switch {
	case n <= 16:
		var a, b uint64
		switch {
		case n >= 8:
			a = binary.LittleEndian.Uint64(data)
			b = binary.LittleEndian.Uint64(data[n-8:])
		case n >= 4:
			a = uint64(binary.LittleEndian.Uint32(data))
			b = uint64(binary.LittleEndian.Uint32(data[n-4:]))
		case n > 0:
			// First byte, middle byte, last byte.
			a = uint64(data[0])<<16 | uint64(data[n>>1])<<8 | uint64(data[n-1])
		}
		return mix(secret1^uint64(n), mix(a^secret1, b^seed))
	default:
		i := n
		p := data
		if i > 48 {
			s1, s2 := seed, seed
			for i > 48 {
				seed = mix(binary.LittleEndian.Uint64(p)^secret1, binary.LittleEndian.Uint64(p[8:])^seed)
				s1 = mix(binary.LittleEndian.Uint64(p[16:])^secret2, binary.LittleEndian.Uint64(p[24:])^s1)
				s2 = mix(binary.LittleEndian.Uint64(p[32:])^secret3, binary.LittleEndian.Uint64(p[40:])^s2)
				p = p[48:]
				i -= 48
			}
			seed ^= s1 ^ s2
		}
		for i > 16 {
			seed = mix(binary.LittleEndian.Uint64(p)^secret1, binary.LittleEndian.Uint64(p[8:])^seed)
			p = p[16:]
			i -= 16
		}
		a := binary.LittleEndian.Uint64(data[n-16:])
		b := binary.LittleEndian.Uint64(data[n-8:])
		return mix(secret1^uint64(n), mix(a^secret1, b^seed))
	}
}

// String hashes a string without allocating.
func String(s string, seed uint64) uint64 {
	// The compiler optimizes the []byte(s) conversion away for read-only use
	// in recent Go versions; measured zero-alloc in benchmarks.
	return Bytes([]byte(s), seed)
}

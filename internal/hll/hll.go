// Package hll implements HyperLogLog cardinality sketches (Flajolet et al.).
//
// Spilly's unified join and aggregation operators maintain one sketch per
// worker thread during the materialization phase (paper §4.5/§4.6). The
// sketches serve two purposes: the hash they compute per tuple is reused by
// Umami's adaptive partitioning for free, and after materialization the
// merged sketch sizes the global hash table, avoiding rehashing.
package hll

import (
	"math"
	"math/bits"
)

// Precision is the number of index bits. 2^Precision registers; standard
// error is about 1.04 / sqrt(2^Precision) ≈ 1.6% at 12.
const Precision = 12

const numRegisters = 1 << Precision

// Sketch is a HyperLogLog cardinality estimator. The zero value is NOT
// ready; use New. Sketches are not safe for concurrent use — the engine
// keeps one per worker and merges at the end, as the paper prescribes.
type Sketch struct {
	registers [numRegisters]uint8
}

// New returns an empty sketch.
func New() *Sketch {
	return &Sketch{}
}

// Add records a pre-computed 64-bit hash of an element. Using the hash
// directly (rather than the element) lets operators share one hash
// computation between the sketch and Umami partitioning.
func (s *Sketch) Add(hash uint64) {
	// Register index: low Precision bits. Rank: trailing zeros of the rest,
	// plus one (the guard bit above the hash ends the count at the top).
	// Umami partitioning consumes the hash *prefix* (high bits), so the
	// sketch deliberately consumes the *suffix* to stay independent.
	idx := hash & (numRegisters - 1)
	rank := uint8(bits.TrailingZeros64(hash>>Precision|1<<(64-Precision)) + 1)
	if rank > s.registers[idx] {
		s.registers[idx] = rank
	}
}

// AddAll records every hash of hs — the batch form operators feed with the
// key hashes of a whole materialized batch.
func (s *Sketch) AddAll(hs []uint64) {
	for _, h := range hs {
		s.Add(h)
	}
}

// Merge folds other into s (register-wise max). Both must use the same
// precision, which is a package constant, so merging is always valid.
func (s *Sketch) Merge(other *Sketch) {
	for i, r := range other.registers {
		if r > s.registers[i] {
			s.registers[i] = r
		}
	}
}

// Reset clears the sketch for reuse.
func (s *Sketch) Reset() {
	s.registers = [numRegisters]uint8{}
}

// Estimate returns the estimated number of distinct elements added.
func (s *Sketch) Estimate() uint64 {
	m := float64(numRegisters)
	var sum float64
	var zeros int
	for _, r := range s.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	// Small-range correction (linear counting).
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	if est < 0 {
		est = 0
	}
	return uint64(est + 0.5)
}

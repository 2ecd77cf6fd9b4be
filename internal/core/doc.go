// Package core implements Umami — the Unified Materialization Management
// Interface that is the paper's primary contribution (§4).
//
// Umami unifies in-memory materialization and spilling behind one interface
// so that physical operator choice becomes unnecessary. It rests on two
// independent but complementary techniques:
//
//   - Adaptive materialization (§4.2): the per-tuple fast path
//     (Buffer.StoreTuple; Buffer.Reserve for a batch encoded in place)
//     indexes a page array by hash >> shift. With shift = 64 there is one
//     partition (plain in-memory materialization);
//     lowering the shift at runtime enables 2^(64-shift) hash partitions —
//     transparently to the operator, which never presupposes tuple
//     locations. Spilling is injected at page-allocation time: when the
//     memory budget is exhausted, full pages are queued for asynchronous
//     writes and clean pages are drawn from a bounded pool (Listing 2).
//
//   - Self-regulating compression (§4.4): a Regulator tracks operator CPU
//     cost, compression cost, and I/O cost in a common currency (cycles per
//     byte) and walks a unified compression scale until effective I/O
//     bandwidth matches CPU bandwidth.
//
// The package also provides the generalized hybrid spilling of §4.3: a
// partition bitmask under an optimistic lock lets threads agree lazily on
// which partitions to evict, so that — like the hybrid hash join, but for
// any hash-based operator — as much data as possible stays in memory.
//
// Operators (internal/exec) use one Buffer per worker thread, all attached
// to a Shared operator state. After the materialization phase, Finalize
// returns the materialization Result: in-memory pages (partitioned and
// unpartitioned mixed — the build phase is partition-agnostic per §4.2
// "Independence") plus the spilled streams — hash partitions, then sorted
// runs — which a PartitionScheduler prefetches from the NVMe array and
// streams back through one PartitionCursor per stream.
package core

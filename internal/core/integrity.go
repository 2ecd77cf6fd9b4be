package core

import (
	"context"
	"fmt"

	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/uring"
)

// Spill integrity: XOR parity stripes and reconstruct-on-read.
//
// Every staging block is written as one checksummed frame (pages.AppendFrame)
// whose sequence number is unique in the process, and every block read is
// verified before anything is decoded. With SpillConfig.Parity = K > 0,
// every K consecutive staging block writes from one writer also form a
// stripe group: the writer XORs the K blocks together (zero-padded to the
// longest) and writes the result as a K+1th parity block. The ring
// round-robins consecutive writes across live devices, so a group's K+1
// blocks land on distinct devices whenever K+1 <= live devices — losing any
// one device costs at most one block per group, and that block is rebuilt
// from the survivors.
//
// On readback, a frame that fails verification (bit rot, torn write,
// misdirected read) or a block read that fails permanently (dead device)
// triggers reconstruction: read the group's surviving K-1 data blocks and
// its parity, XOR them, and re-verify the rebuilt block's frame. Only
// a second fault inside the same group — or damage to a block that was
// never striped — makes the error fatal, and then it surfaces as a
// structured *QueryError naming the device and partition.

// StripeGroup records one parity stripe: the data block locations and the
// location of their XOR parity block. A zero Parity means the parity write
// never completed (the query is already failing); such a group cannot
// repair anything.
type StripeGroup struct {
	Data   []nvmesim.Loc
	Parity nvmesim.Loc
}

// buildStripeIndex maps every data block location to its stripe group.
func buildStripeIndex(stripes []*StripeGroup) map[nvmesim.Loc]*StripeGroup {
	if len(stripes) == 0 {
		return nil
	}
	idx := make(map[nvmesim.Loc]*StripeGroup, len(stripes)*2)
	for _, g := range stripes {
		for _, loc := range g.Data {
			idx[loc] = g
		}
	}
	return idx
}

// xorInto XORs src into dst[:len(src)]. dst must be at least as long.
func xorInto(dst, src []byte) {
	for i, b := range src {
		dst[i] ^= b
	}
}

// repairer rebuilds lost or corrupt spill blocks from their stripe group.
// It owns a ring of its own for the recovery reads — reconstruction is a
// cold path; keeping it off the readback ring means no interference with the
// prefetch pipeline's in-flight requests. The ring binds to the engine's
// shared I/O scheduler as demand reads under the query's fairness key: a
// consumer is blocked on every one of them. Not safe for concurrent use;
// the scheduler owns one and calls it under its lock.
type repairer struct {
	ctx     context.Context
	arr     *nvmesim.Array
	sched   uring.Dispatcher // nil = unbound ring
	query   uint64
	byLoc   map[nvmesim.Loc]*StripeGroup
	ring    *uring.Ring
	scratch []uring.Completion
}

func newRepairer(ctx context.Context, arr *nvmesim.Array, sched uring.Dispatcher, query uint64, stripes []*StripeGroup) *repairer {
	return &repairer{ctx: ctx, arr: arr, sched: sched, query: query, byLoc: buildStripeIndex(stripes)}
}

// enabled reports whether the repairer has any stripe directory at all.
func (rp *repairer) enabled() bool { return rp != nil && len(rp.byLoc) > 0 }

// vstats counts the integrity work of one block validation.
type vstats struct {
	verified        int64 // pages of blocks whose frame verified
	checksumErrors  int64 // blocks that failed verification
	reconstructions int64 // blocks rebuilt from parity
}

// validBlock verifies the block at loc and returns its frame's payload,
// aliasing buf. buf holds the block's read contents (readErr == nil) or
// garbage (readErr != nil, e.g. a dead device); slots are the block's page
// slots, whose Seq is the block's, and part the partition the caller expects
// (-1 = unknown). When verification fails — or the read itself did — the
// block is reconstructed in place from its stripe group and re-verified. A
// nil error means the block's one frame verified, and with it every page in
// the block; a non-nil error is a structured *QueryError naming the device
// and partition.
func (rp *repairer) validBlock(loc nvmesim.Loc, buf []byte, slots []SpilledSlot, part int, readErr error) ([]byte, vstats, error) {
	var st vstats
	seq := slots[0].Seq
	cause := readErr
	if cause == nil {
		payload, err := pages.VerifyFrame(buf, part, seq)
		if err == nil {
			st.verified = int64(len(slots))
			return payload, st, nil
		}
		st.checksumErrors++
		cause = err
	}
	if !rp.enabled() {
		return nil, st, spillReadError(loc, part, cause)
	}
	g := rp.byLoc[loc]
	if g == nil || g.Parity == 0 {
		return nil, st, spillReadError(loc, part, cause)
	}
	if err := rp.reconstruct(g, loc, buf); err != nil {
		return nil, st, &QueryError{
			Op: "spill-read", Part: part, Device: loc.Device(),
			Err: fmt.Errorf("block %v unrecoverable (%v): %w", loc, cause, err),
		}
	}
	payload, err := pages.VerifyFrame(buf, part, seq)
	if err != nil {
		// The rebuilt block still fails its checksum: a second silent
		// fault elsewhere in the group (or in the parity block itself).
		return nil, st, &QueryError{
			Op: "spill-read", Part: part, Device: loc.Device(),
			Err: fmt.Errorf("block %v unrecoverable (%v): reconstruction produced %w", loc, cause, err),
		}
	}
	st.reconstructions++
	st.verified = int64(len(slots))
	return payload, st, nil
}

// reconstruct rebuilds the block at target into dst by XORing the stripe's
// surviving data blocks with its parity block. dst must be target.Size()
// long; it is zeroed first. Transient read errors on survivors are retried;
// a permanent failure (the stripe's second fault) is returned as-is.
func (rp *repairer) reconstruct(g *StripeGroup, target nvmesim.Loc, dst []byte) error {
	for i := range dst {
		dst[i] = 0
	}
	srcs := make([]nvmesim.Loc, 0, len(g.Data))
	for _, m := range g.Data {
		if m != target {
			srcs = append(srcs, m)
		}
	}
	srcs = append(srcs, g.Parity)
	buf := pages.GetBuf(maxLocSize(srcs))
	defer pages.PutBuf(buf)
	for _, src := range srcs {
		n, err := rp.readBlock(src, buf)
		if err != nil {
			return err
		}
		xorInto(dst, buf[:min(n, len(dst))])
	}
	return nil
}

// readBlock reads one survivor block through the repairer's ring, retrying
// transient errors with the writer's backoff policy.
func (rp *repairer) readBlock(loc nvmesim.Loc, dst []byte) (int, error) {
	if rp.ring == nil {
		rp.ring = uring.New(rp.arr)
		rp.ring.Bind(rp.sched, uring.ClassDemand, rp.query)
		if rp.ctx != nil {
			ctx := rp.ctx
			rp.ring.SetCancel(func() bool { return ctx.Err() != nil })
		}
	}
	clock := rp.arr.Clock()
	for attempt := 1; ; attempt++ {
		if rp.ctx != nil && rp.ctx.Err() != nil {
			return 0, rp.ctx.Err()
		}
		rp.ring.QueueRead(loc, dst[:loc.Size()], uint64(attempt))
		rp.ring.Submit()
		var done uring.Completion
		for rp.ring.Outstanding() > 0 {
			rp.scratch = rp.ring.Poll(rp.scratch[:0], true)
			for _, c := range rp.scratch {
				done = c
			}
			if rp.ctx != nil && rp.ctx.Err() != nil && rp.ring.Outstanding() > 0 {
				return 0, rp.ctx.Err()
			}
		}
		if done.Err == nil {
			return done.N, nil
		}
		if !nvmesim.IsTransient(done.Err) || attempt >= maxWriteAttempts {
			return 0, done.Err
		}
		clock.Sleep(retryBackoff(attempt))
	}
}

// spillReadError wraps an unrecoverable readback fault in the structured
// error consumers surface.
func spillReadError(loc nvmesim.Loc, part int, err error) error {
	return &QueryError{Op: "spill-read", Part: part, Device: loc.Device(), Err: err}
}

func maxLocSize(locs []nvmesim.Loc) int {
	m := 0
	for _, l := range locs {
		if s := l.Size(); s > m {
			m = s
		}
	}
	return m
}

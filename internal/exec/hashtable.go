package exec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/pages"
)

// joinTable is the hash join's table, one type for the global in-memory table
// and for every spilled partition's: a directory of buckets over one array of
// entries that "link to tuples on pages" (§4.4). No array holds a pointer.
//
// The bucket is a *prefix* of the key hash (below the skip bits a partition's
// hashes all share), so partition bits map to contiguous bucket ranges — the
// locality optimization of §5.3. A bucket's entries are contiguous (the table
// is built by a counting sort), duplicates of a key therefore adjacent: a
// heavy hitter is a linear run, not a pointer chase.
//
// dir[b+1] describes bucket b: the end of its entry run in the high 48 bits
// (its start is the end of bucket b-1, dir[b]>>16, and dir[0] is 0) over a
// 16-bit tag word in which every entry of the bucket sets the bit its four
// hash bits below the bucket prefix select. A probe whose bit is clear stops
// at the directory: it touches no entry and no tuple.
//
// An entry is the tuple's key hash with the low refBits replaced by the
// tuple's place, page<<offBits | offset. The hash bits that remain cover the
// bucket prefix and the tag bits (buildJoinTable sizes the directory so), so
// the build derives both from the entry alone, and a probe compares them
// before it follows the reference: a tuple is read only when at least the
// upper 64-refBits hash bits agree.
//
// With the bucket count the largest power of two that neither exceeds the
// tuple count nor is below the distinct-key estimate, the table costs at
// most 16 bytes per build tuple.
type joinTable struct {
	rc   *data.RowCodec
	keys []int // key fields of the build tuple

	dir     []uint64
	entries []uint64
	pages   [][]byte // backing block of every build page

	skip    uint // leading hash bits every tuple shares (a partition's number)
	shift   uint // bucket = hash << skip >> shift
	refBits uint
	offBits uint
}

// joinTagBits is how many hash bits pick an entry's bit in the tag word.
const joinTagBits = 4

// hashBuildTestHook, when set by tests, runs once per page during the hash
// phase — the injection point for verifying that build-side failures
// propagate to the caller instead of yielding a half-built table.
var hashBuildTestHook func()

// bucket and tagBit read a hash's directory position; an entry serves as well
// as the hash it was made from.
func (t *joinTable) bucket(h uint64) uint64 { return (h << t.skip) >> t.shift }

func (t *joinTable) tagBit(h uint64) uint64 {
	return 1 << (((h << t.skip) >> (t.shift - joinTagBits)) & (1<<joinTagBits - 1))
}

// buildJoinTable indexes the tuples of pgs by the hash of their key fields.
// skip is the number of leading hash bits they all share; distinct sizes the
// directory (the paper derives it from the HyperLogLog sketches built during
// materialization; <= 0 falls back to the tuple count, which also bounds it).
//
// Tuples are hashed in parallel over the pages, then sorted into bucket order
// in parallel over ranges of buckets. A worker failure (error or panic,
// recovered by runWorkers) aborts the build: a partially filled table would
// silently drop matches.
func buildJoinTable(pgs []*pages.Page, rc *data.RowCodec, keys []int, skip uint, distinct int64, workers int) (*joinTable, error) {
	t := &joinTable{rc: rc, keys: keys, skip: skip, pages: make([][]byte, len(pgs))}
	total, pageSize := 0, 1
	for i, p := range pgs {
		total += p.Tuples()
		t.pages[i] = p.Bytes()
		pageSize = max(pageSize, p.Size())
	}
	t.offBits = uint(bits.Len(uint(pageSize - 1)))
	t.refBits = t.offBits + uint(bits.Len(uint(len(pgs))))
	maxLg := 64 - int(t.refBits) - int(skip) - joinTagBits
	if maxLg < 0 {
		return nil, fmt.Errorf("exec: join build side of %d pages of %d bytes is too large to index", len(pgs), pageSize)
	}
	if distinct <= 0 || distinct > int64(total) {
		distinct = int64(total)
	}
	lg := 0
	for lg < maxLg && int64(1)<<lg < distinct {
		lg++
	}
	for lg > 0 && 1<<lg > total {
		lg--
	}
	nBuckets := 1 << lg
	t.shift = uint(64 - lg)
	t.dir = pages.GetArray[uint64](nBuckets + 1)
	clear(t.dir)
	t.entries = pages.GetArray[uint64](total) // every entry is written below
	if total == 0 {
		return t, nil
	}

	// Hash every tuple into its entry. Pages are handed out by an atomic
	// cursor (the page list is grouped by partition, so consecutive pages
	// share hash prefixes). A worker radix-partitions what it hashes by the
	// leading bucket bits into parts small enough that a part's slice of the
	// directory and of the entries stays in cache while it is sorted.
	partBits := min(max(lg-13, 0), 8)
	partShift := uint(lg - partBits)
	nParts := 1 << partBits
	lists := make([][][]uint64, workers) // [worker][part]
	refMask := uint64(1)<<t.refBits - 1
	var cursor atomic.Int64
	err := runWorkers("hash-build", workers, func(w int) error {
		mine := make([][]uint64, nParts)
		lists[w] = mine
		for part := range mine {
			mine[part] = pages.GetArray[uint64](total/(workers*nParts)*5/4 + 16)[:0]
		}
		for {
			pi := int(cursor.Add(1) - 1)
			if pi >= len(pgs) {
				return nil
			}
			if hashBuildTestHook != nil {
				hashBuildTestHook()
			}
			p, block := pgs[pi], t.pages[pi]
			for i, n := 0, p.Tuples(); i < n; i++ {
				off := p.Offset(i)
				e := rc.HashTuple(block[off:], keys)&^refMask | uint64(pi)<<t.offBits | uint64(off)
				part := t.bucket(e) >> partShift
				mine[part] = append(mine[part], e)
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// Counting sort, a part at a time — histogram, prefix sum, scatter, the
	// shape mergePhase uses per page. dir[b+1] is bucket b's write cursor:
	// its start after the prefix sum, its end after the scatter, which makes
	// it bucket b+1's start. A part's buckets and entries have one writer.
	partStart := make([]uint64, nParts+1)
	for part := 0; part < nParts; part++ {
		partStart[part+1] = partStart[part]
		for _, mine := range lists {
			partStart[part+1] += uint64(len(mine[part]))
		}
	}
	cursor.Store(0)
	err = runWorkers("hash-build", min(workers, nParts), func(int) error {
		for {
			part := int(cursor.Add(1) - 1)
			if part >= nParts {
				return nil
			}
			for _, mine := range lists {
				for _, e := range mine[part] {
					t.dir[t.bucket(e)+1] += 1 << 16
				}
			}
			run := partStart[part] << 16
			for b := part<<partShift + 1; b <= (part+1)<<partShift; b++ {
				n := t.dir[b]
				t.dir[b] = run
				run += n
			}
			for _, mine := range lists {
				for _, e := range mine[part] {
					d := &t.dir[t.bucket(e)+1]
					t.entries[*d>>16] = e
					*d = (*d + 1<<16) | t.tagBit(e)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for _, mine := range lists {
		for _, l := range mine {
			pages.PutArray(l)
		}
	}
	return t, nil
}

// release hands the table's arrays to the recycler once no probe can reach
// it any more. Safe on a nil table.
func (t *joinTable) release() {
	if t == nil {
		return
	}
	pages.PutArray(t.dir)
	pages.PutArray(t.entries)
	t.dir, t.entries, t.pages = nil, nil, nil
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// joinCand is a probe row that passed the tag filter: live row i of the probe
// batch, its bucket's entry run and the first entry of it.
type joinCand struct {
	i      int32
	lo, hi uint32
	first  uint64
}

// joinHit is an entry whose hash bits agree with its candidate's.
type joinHit struct {
	cand int32
	e    uint32
}

// joinProbe joins one probe batch against a table, a batch at a time, in
// stages that each run over the whole selection: start hashes the key columns
// and filters the rows through the directory; collect walks the surviving
// runs comparing hash bits; fill and exists compare keys with the tuples
// that remain. Within a stage no load waits for another row's, so the
// cache misses a probe takes — directory, entry, tuple — overlap across rows.
// One per worker; its arrays are reused from batch to batch, and across
// queries: a worker takes a recycled probe (getJoinProbe) and hands it back
// when its stream ends.
type joinProbe struct {
	cols []int // key columns of the probe batch
	// intKeys: every key is an 8-byte integer on both sides (fixed per join).
	// A batch whose key columns carry no NULL then compares slots directly;
	// anything else goes through RowCodec.KeyEqualRow, where NULL matches NULL.
	intKeys bool

	t      *joinTable
	in     *data.Batch
	ints   bool
	hashes []uint64 // key hash of every live row
	cand   []joinCand
	ci     int    // the candidate collect continues with …
	ei     uint32 // … and the entry of its run
	hits   []joinHit

	matched []bool   // per live row: a build tuple matched (so far)
	rows    []int32  // the last fill's matches: physical probe row …
	tups    [][]byte // … and build tuple
	touched byte
}

var joinProbes pages.FreeList[joinProbe]

// getJoinProbe returns a recycled probe, or a new one, for key columns cols.
func getJoinProbe(cols []int, intKeys bool) *joinProbe {
	p := joinProbes.Get()
	if p == nil {
		p = &joinProbe{}
	}
	p.cols, p.intKeys = cols, intKeys
	return p
}

// free drops the probe's references to its table, batch and build tuples
// and hands it to the recycler.
func (p *joinProbe) free() {
	p.cols, p.t, p.in = nil, nil, nil
	clear(p.tups[:cap(p.tups)])
	p.cand, p.hits, p.rows, p.tups = p.cand[:0], p.hits[:0], p.rows[:0], p.tups[:0]
	joinProbes.Put(p)
}

// start begins the join of in against t (nil: no table, nothing matches).
func (p *joinProbe) start(t *joinTable, in *data.Batch) {
	p.t, p.in = t, in
	p.hashes = data.HashColumns(in, in.Sel, p.cols, p.hashes[:0])
	n := len(p.hashes)
	p.matched = sized(p.matched, n)
	clear(p.matched)
	p.cand, p.ci = p.cand[:0], 0
	if t == nil || len(t.entries) == 0 {
		return
	}
	p.ints = p.intKeys
	for _, c := range p.cols {
		p.ints = p.ints && in.Cols[c].Null == nil
	}
	cand := sized(p.cand, n)
	k := 0
	for i, h := range p.hashes {
		b := t.bucket(h)
		d := t.dir[b+1]
		if d&t.tagBit(h) == 0 {
			continue
		}
		cand[k] = joinCand{i: int32(i), lo: uint32(t.dir[b] >> 16), hi: uint32(d >> 16)}
		k++
	}
	p.cand = cand[:k]
	if k > 0 {
		p.ei = cand[0].lo
	}
	// A loop of its own for the entry array's misses; most runs end here.
	for k := range p.cand {
		p.cand[k].first = t.entries[p.cand[k].lo]
	}
}

// collect gathers into hits, from where it stopped, the entries whose hash
// bits agree with their candidate's hash: at most limit of them, and of each
// run only the first when first is set. It resumes inside a run, so a probe
// row with more matches than limit spans several calls.
func (p *joinProbe) collect(limit int, first bool) {
	t := p.t
	p.hits = p.hits[:0]
	for p.ci < len(p.cand) && len(p.hits) < limit {
		c := p.cand[p.ci]
		h := p.hashes[c.i]
		e := p.ei
		for ; e < c.hi; e++ {
			ent := c.first
			if e > c.lo {
				ent = t.entries[e]
			}
			if (ent^h)>>t.refBits == 0 {
				p.hits = append(p.hits, joinHit{cand: int32(p.ci), e: e})
				if first || len(p.hits) == limit {
					e++
					break
				}
			}
		}
		if !first && e < c.hi {
			p.ei = e
			return
		}
		if p.ci++; p.ci < len(p.cand) {
			p.ei = p.cand[p.ci].lo
		}
	}
}

// tuple follows an entry's reference.
func (t *joinTable) tuple(e uint32) []byte {
	ref := t.entries[e] & (1<<t.refBits - 1)
	return t.pages[ref>>t.offBits][ref&(1<<t.offBits-1):]
}

// keyEqual reports whether build tuple tup has the key of probe row r.
func (p *joinProbe) keyEqual(tup []byte, r int) bool {
	t := p.t
	if !p.ints {
		return t.rc.KeyEqualRow(tup, t.keys, p.in, p.cols, r)
	}
	for k, f := range t.keys {
		if binary.LittleEndian.Uint64(tup[t.rc.FieldOffset(f):]) != uint64(p.in.Cols[p.cols[k]].I[r]) || t.rc.IsNull(tup, f) {
			return false
		}
	}
	return true
}

// fill collects the next matches, at most limit of them, into rows and tups,
// and returns how many; 0 means the batch is exhausted.
func (p *joinProbe) fill(limit int) int {
	p.rows, p.tups = p.rows[:0], p.tups[:0]
	for len(p.rows) == 0 && p.ci < len(p.cand) {
		p.collect(limit, false)
		tups := sized(p.tups, len(p.hits))
		rows := sized(p.rows, len(p.hits))
		// Touch every tuple in a loop of its own, so that their misses
		// overlap instead of each waiting for the last one's key compare.
		for j, hit := range p.hits {
			tups[j] = p.t.tuple(hit.e)
			p.touched |= tups[j][0]
		}
		k := 0
		for j, hit := range p.hits {
			i := p.cand[hit.cand].i
			r := p.in.Row(int(i))
			if p.keyEqual(tups[j], r) {
				p.matched[i] = true
				rows[k], tups[k] = int32(r), tups[j]
				k++
			}
		}
		p.rows, p.tups = rows[:k], tups[:k]
	}
	return len(p.rows)
}

// exists is the existence pass of semi and anti joins: it sets matched for
// every live row with at least one match and collects nothing. A run is
// walked past its first agreeing entry only when that one's key differs.
func (p *joinProbe) exists() {
	t := p.t
	for p.ci < len(p.cand) {
		p.collect(len(p.cand), true)
		for _, hit := range p.hits {
			c := p.cand[hit.cand]
			r := p.in.Row(int(c.i))
			for e := hit.e; e < c.hi && !p.matched[c.i]; e++ {
				p.matched[c.i] = (t.entries[e]^p.hashes[c.i])>>t.refBits == 0 && p.keyEqual(t.tuple(e), r)
			}
		}
	}
}

package colstore

import (
	"fmt"
	"sync/atomic"

	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/uring"
)

// DefaultRowGroupSize is the number of tuples per row group; the paper
// sizes row groups at 32k tuples and uses them as the morsel unit (§5.2).
const DefaultRowGroupSize = 32 * 1024

// Table is a scannable table: in memory (MemTable) or on the NVMe array
// (DiskTable). Readers share a group cursor, which is exactly the
// morsel-stealing mechanism of morsel-driven parallelism.
type Table interface {
	Name() string
	Schema() *data.Schema
	Rows() int64
	Groups() int
	GroupRows(g int) int
	// NewReader returns a per-worker reader over the projected columns.
	// All readers sharing cursor collectively scan each group once. query
	// is the fairness key the reader's I/O carries into the shared I/O
	// scheduler, so one query's scan flood cannot crowd out another's.
	NewReader(proj []int, cursor *atomic.Int64, query uint64) Reader
}

// Reader yields row groups as batches. Next fills b (after resetting it)
// and returns the number of rows, or 0 at end of table.
type Reader interface {
	Next(b *data.Batch) (int, error)
	// Close quiesces the reader's outstanding I/O and releases its buffers.
	// Idempotent; consumers call it when abandoning a scan mid-stream.
	Close()
	// StallNanos is the wall time the reader's worker spent blocked on
	// table reads, and Stalls how many times it blocked.
	StallNanos() int64
	Stalls() int64
}

// MemTable is a fully in-memory columnar table.
type MemTable struct {
	name      string
	schema    *data.Schema
	cols      []data.Column
	rows      int
	groupSize int
}

// NewMemTable returns an empty in-memory table. groupSize <= 0 selects the
// default row group size.
func NewMemTable(name string, schema *data.Schema, groupSize int) *MemTable {
	if groupSize <= 0 {
		groupSize = DefaultRowGroupSize
	}
	t := &MemTable{name: name, schema: schema, groupSize: groupSize, cols: make([]data.Column, schema.Len())}
	for i, c := range schema.Cols {
		t.cols[i].Type = c.Type
	}
	return t
}

// Append bulk-loads the rows of b, whose schema must match.
func (t *MemTable) Append(b *data.Batch) {
	for i := range t.cols {
		src := &b.Cols[i]
		dst := &t.cols[i]
		switch dst.Type {
		case data.Float64:
			dst.F = append(dst.F, src.F...)
		case data.String:
			dst.S = append(dst.S, src.S...)
		default:
			dst.I = append(dst.I, src.I...)
		}
	}
	t.rows += b.Len()
}

// Name implements Table.
func (t *MemTable) Name() string { return t.name }

// Schema implements Table.
func (t *MemTable) Schema() *data.Schema { return t.schema }

// Rows implements Table.
func (t *MemTable) Rows() int64 { return int64(t.rows) }

// Groups implements Table.
func (t *MemTable) Groups() int {
	return (t.rows + t.groupSize - 1) / t.groupSize
}

// GroupRows implements Table.
func (t *MemTable) GroupRows(g int) int {
	lo := g * t.groupSize
	hi := lo + t.groupSize
	if hi > t.rows {
		hi = t.rows
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// Column exposes the backing column (read-only) for direct inspection.
func (t *MemTable) Column(i int) *data.Column { return &t.cols[i] }

// NewReader implements Table. In-memory readers alias table storage —
// parallel in-memory scans are pointer dereferences, as the paper notes —
// and do no I/O, so the query key is unused.
func (t *MemTable) NewReader(proj []int, cursor *atomic.Int64, _ uint64) Reader {
	return &memReader{t: t, proj: proj, cursor: cursor}
}

type memReader struct {
	t      *MemTable
	proj   []int
	cursor *atomic.Int64
}

func (r *memReader) Close()            {}
func (r *memReader) StallNanos() int64 { return 0 }
func (r *memReader) Stalls() int64     { return 0 }

func (r *memReader) Next(b *data.Batch) (int, error) {
	g := int(r.cursor.Add(1) - 1)
	if g >= r.t.Groups() {
		return 0, nil
	}
	lo := g * r.t.groupSize
	hi := lo + r.t.GroupRows(g)
	b.Reset()
	for i, col := range r.proj {
		src := &r.t.cols[col]
		dst := &b.Cols[i]
		switch src.Type {
		case data.Float64:
			dst.F = src.F[lo:hi]
		case data.String:
			dst.S = src.S[lo:hi]
		default:
			dst.I = src.I[lo:hi]
		}
	}
	b.SetLen(hi - lo)
	// The views reach to the end of the table's arrays: without the mark, a
	// later lessee of this pooled batch would append rows into the table.
	b.Borrow()
	return hi - lo, nil
}

// ChunkRef locates one encoded column chunk on the array.
type ChunkRef struct {
	Loc nvmesim.Loc
	Len int32 // encoded byte length (Loc.Size() is block-aligned)
}

type diskGroup struct {
	rows   int
	chunks []ChunkRef // one per column
}

// Store manages tables resident on an NVMe array, with an optional buffer
// cache (§6.1: the comparison systems cache data in memory for hot runs;
// Spilly gets a simple cache with random eviction for parity).
type Store struct {
	arr   *nvmesim.Array
	cache *Cache

	// sched, when set, routes every table read and write through the
	// engine's shared I/O scheduler: scans as prefetch-class, bulk loads as
	// background-class.
	sched uring.Dispatcher
}

// NewStore returns a store over the array. cache may be nil (always-cold
// scans).
func NewStore(arr *nvmesim.Array, cache *Cache) *Store {
	return &Store{arr: arr, cache: cache}
}

// Array returns the underlying NVMe array.
func (s *Store) Array() *nvmesim.Array { return s.arr }

// Cache returns the store's buffer cache, or nil.
func (s *Store) Cache() *Cache { return s.cache }

// SetIOSched routes the store's I/O through the given shared dispatcher
// (nil = private rings). Set once at engine start, before any reads.
func (s *Store) SetIOSched(d uring.Dispatcher) { s.sched = d }

// DiskTable is a table stored as encoded column chunks on the array.
type DiskTable struct {
	name      string
	schema    *data.Schema
	rows      int64
	groupSize int
	groups    []diskGroup
	store     *Store
	rawBytes  int64 // uncompressed size, for the §5.2 ratio
	encBytes  int64
	// maxChunk is each column's largest chunk, as its extent's size: what a
	// reader's buffer for the column has to hold.
	maxChunk []int
}

// WriteTable encodes mt's row groups and stripes every column over all of the
// array's devices: the chunk of column c in group g goes to device (g+c) mod
// devices, so a column's consecutive chunks sit on consecutive SSDs whatever
// the column count (§5.2 "data layout optimized for NVMe arrays": maximizing
// single-column scan throughput requires distributing each column across
// SSDs), and the columns of one group spread out as well.
func (s *Store) WriteTable(mt *MemTable) (*DiskTable, error) {
	dt := &DiskTable{
		name:      mt.name,
		schema:    mt.schema,
		rows:      int64(mt.rows),
		groupSize: mt.groupSize,
		store:     s,
		maxChunk:  make([]int, mt.schema.Len()),
	}
	ring := uring.New(s.arr)
	// Bulk loads are background-class under the shared scheduler: they
	// must not crowd out a running query's demand reads.
	ring.Bind(s.sched, uring.ClassBackground, 0)
	devs := s.arr.Devices()
	// A write's user data is its group and column, for the error message;
	// its buffer comes back with the completion and takes the next chunk.
	var free [][]byte
	var done []uring.Completion
	recycle := func() error {
		for _, c := range done {
			if c.Err != nil {
				return fmt.Errorf("colstore: writing %s group %d col %d: %w", mt.name, c.UserData>>32, uint32(c.UserData), c.Err)
			}
			free = append(free, c.Buf[:0])
		}
		return nil
	}
	for g := 0; g < mt.Groups(); g++ {
		lo := g * mt.groupSize
		rows := mt.GroupRows(g)
		dg := diskGroup{rows: rows, chunks: make([]ChunkRef, mt.schema.Len())}
		for col := range mt.cols {
			var buf []byte
			if n := len(free); n > 0 {
				buf, free = free[n-1], free[:n-1]
			}
			enc := EncodeChunk(buf, &mt.cols[col], lo, lo+rows)
			dt.encBytes += int64(len(enc))
			dt.rawBytes += rawColumnBytes(&mt.cols[col], lo, lo+rows)
			loc, err := ring.QueueWriteDev((g+col)%devs, enc, uint64(g)<<32|uint64(col))
			if err != nil {
				return nil, fmt.Errorf("colstore: writing %s group %d col %d: %w", mt.name, g, col, err)
			}
			dg.chunks[col] = ChunkRef{Loc: loc, Len: int32(len(enc))}
			dt.maxChunk[col] = max(dt.maxChunk[col], loc.Size())
		}
		dt.groups = append(dt.groups, dg)
		ring.Submit()
		done = ring.Poll(done[:0], false)
		if err := recycle(); err != nil {
			return nil, err
		}
	}
	done = ring.WaitAll(done[:0])
	if err := recycle(); err != nil {
		return nil, err
	}
	return dt, nil
}

func rawColumnBytes(c *data.Column, lo, hi int) int64 {
	if c.Type == data.String {
		var n int64
		for _, s := range c.S[lo:hi] {
			n += int64(len(s)) + 4
		}
		return n
	}
	return int64(8 * (hi - lo))
}

// Name implements Table.
func (t *DiskTable) Name() string { return t.name }

// Schema implements Table.
func (t *DiskTable) Schema() *data.Schema { return t.schema }

// Rows implements Table.
func (t *DiskTable) Rows() int64 { return t.rows }

// Groups implements Table.
func (t *DiskTable) Groups() int { return len(t.groups) }

// GroupRows implements Table.
func (t *DiskTable) GroupRows(g int) int { return t.groups[g].rows }

// Chunk returns where column col of group g is stored.
func (t *DiskTable) Chunk(g, col int) ChunkRef { return t.groups[g].chunks[col] }

// CompressionRatio returns raw bytes / encoded bytes (§5.2 table).
func (t *DiskTable) CompressionRatio() float64 {
	if t.encBytes == 0 {
		return 1
	}
	return float64(t.rawBytes) / float64(t.encBytes)
}

// EncodedBytes returns the table's on-array size.
func (t *DiskTable) EncodedBytes() int64 { return t.encBytes }

// RawBytes returns the table's uncompressed size.
func (t *DiskTable) RawBytes() int64 { return t.rawBytes }

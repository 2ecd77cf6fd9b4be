package main

import (
	"fmt"
	"time"

	rescache "github.com/spilly-db/spilly/internal/cache"
	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/exec"
	"github.com/spilly-db/spilly/internal/iosched"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/uring"
	"github.com/spilly-db/spilly/internal/xhash"
)

const (
	kernelRows  = 64 << 10 // rows cut from the head of a table, times the test's scale
	kernelBatch = 1024     // rows per batch, the engine's morsel size
	kernelReps  = 5
	codecPages  = 4 // spill pages each codec sees: deflate-6 takes ~3 ms a page
	ioBlock     = 64 << 10
)

// timeKernel times fn, which does units units of work per call, on the
// calling goroutine: it sizes a repetition to about rep, runs kernelReps of
// them and returns the median cost of one unit in nanoseconds.
func timeKernel(rep time.Duration, units int, fn func()) float64 {
	fn() // warm caches and pools
	calls := 1
	for {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		d := time.Since(t0)
		if d >= rep/4 || calls >= 1<<24 {
			calls = max(1, int(float64(calls)*float64(rep)/float64(max(d, 1))))
			break
		}
		calls *= 4
	}
	samples := make([]float64, kernelReps)
	for s := range samples {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		samples[s] = float64(time.Since(t0).Nanoseconds()) / float64(calls*units)
	}
	return median(samples)
}

// cut slices the first rows of the named columns into batches of the engine's
// morsel size. The batches alias the table's columns.
func cut(t *colstore.MemTable, rows int, cols ...string) []*data.Batch {
	schema := t.Schema().Project(cols...)
	rows = min(int(t.Rows()), rows)
	var out []*data.Batch
	for lo := 0; lo < rows; lo += kernelBatch {
		hi := min(lo+kernelBatch, rows)
		b := &data.Batch{Schema: schema, Cols: make([]data.Column, len(cols))}
		for i, name := range cols {
			src := t.Column(t.Schema().MustIndex(name))
			dst := &b.Cols[i]
			dst.Type = src.Type
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
		out = append(out, b)
	}
	return out
}

func rowsOf(bs []*data.Batch) int {
	n := 0
	for _, b := range bs {
		n += b.Len()
	}
	return n
}

// kernels times single-goroutine calls into each package's exported
// functions on inputs cut from the generated lineitem and orders tables.
// They keep a layer visible when no workload leans on it, and give a change
// to one layer a number that moves before the end-to-end ones do.
func kernels(m metrics, lineitem, orders *colstore.MemTable, rows int, rep time.Duration) {
	execKernels(m, lineitem, orders, rows, rep)
	tuples := dataKernels(m, lineitem, rows, rep)
	coreKernels(m, tuples, rep)
	spillPages := pagesKernels(m, tuples, rep)
	codecKernels(m, spillPages, rep)
	colstoreKernels(m, lineitem, rows, rep)
	ioKernels(m, rep)
	cacheKernels(m, lineitem, rep)
	m.set("xhash.bytes_ns_per_byte", "ns", timeKernel(rep, len(spillPages[0]), func() {
		sink += xhash.Bytes(spillPages[0], checkSeed)
	}))
}

// sink keeps results alive so the compiler cannot drop a kernel's work.
var sink uint64

func execKernels(m metrics, lineitem, orders *colstore.MemTable, rows int, rep time.Duration) {
	// Q6's predicate.
	q6 := cut(lineitem, rows, "l_shipdate", "l_discount", "l_quantity")
	s := q6[0].Schema
	pred := exec.And(
		exec.Cmp(">=", exec.Col(s, "l_shipdate"), exec.ConstDate("1994-01-01")),
		exec.Cmp("<", exec.Col(s, "l_shipdate"), exec.ConstDate("1995-01-01")),
		exec.Cmp(">=", exec.Col(s, "l_discount"), exec.ConstFloat(0.0499)),
		exec.Cmp("<=", exec.Col(s, "l_discount"), exec.ConstFloat(0.0701)),
		exec.Cmp("<", exec.Col(s, "l_quantity"), exec.ConstFloat(24)),
	)
	sel := make([]int32, 0, kernelBatch)
	m.set("exec.filter_ns_per_tuple", "ns", timeKernel(rep, rowsOf(q6), func() {
		for _, b := range q6 {
			sel = pred.EvalBool(b, nil, sel[:0])
		}
	}))

	// Q1's charge: price * (1 - discount) * (1 + tax).
	q1 := cut(lineitem, rows, "l_extendedprice", "l_discount", "l_tax")
	s = q1[0].Schema
	charge := exec.Mul(
		exec.Mul(exec.Col(s, "l_extendedprice"), exec.Sub(exec.ConstFloat(1), exec.Col(s, "l_discount"))),
		exec.Add(exec.ConstFloat(1), exec.Col(s, "l_tax")))
	out := make([]float64, kernelBatch)
	m.set("exec.arith_ns_per_tuple", "ns", timeKernel(rep, rowsOf(q1), func() {
		for _, b := range q1 {
			charge.EvalF(b, nil, out[:b.Len()])
		}
	}))

	// Q13's o_comment NOT LIKE.
	q13 := cut(orders, rows, "o_comment")
	notLike := exec.NotLike(exec.Col(q13[0].Schema, "o_comment"), "%special%requests%")
	m.set("exec.like_ns_per_tuple", "ns", timeKernel(rep, rowsOf(q13), func() {
		for _, b := range q13 {
			sel = notLike.EvalBool(b, nil, sel[:0])
		}
	}))
}

// tupleSet is lineitem rows in the row format operators materialize: the
// encoded tuples and the hash of each one's key columns.
type tupleSet struct {
	tuples [][]byte
	hashes []uint64
}

func dataKernels(m metrics, lineitem *colstore.MemTable, rows int, rep time.Duration) tupleSet {
	wide := cut(lineitem, rows, "l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_shipdate", "l_shipinstruct", "l_comment")
	keys := []int{0, 1} // l_orderkey, l_partkey
	rows = rowsOf(wide)

	hashes := make([]uint64, 0, kernelBatch)
	m.set("data.hash_ns_per_tuple", "ns", timeKernel(rep, rows, func() {
		for _, b := range wide {
			hashes = data.HashColumns(b, nil, keys, hashes[:0])
		}
	}))

	rc := data.NewRowCodec(wide[0].Schema.Types())
	var ts tupleSet
	sizes := make([]int, 0, kernelBatch)
	dsts := make([][]byte, 0, kernelBatch)
	var arena []byte
	encode := func(keep bool) {
		for _, b := range wide {
			sizes = rc.SizeAll(b, nil, sizes[:0])
			total := 0
			for _, n := range sizes {
				total += n
			}
			if keep || cap(arena) < total {
				arena = make([]byte, total)
			}
			dsts = dsts[:0]
			for buf, i := arena[:total], 0; i < len(sizes); i++ {
				n := sizes[i]
				dsts = append(dsts, buf[:n:n])
				buf = buf[n:]
			}
			rc.EncodeAll(dsts, b, nil)
			if keep {
				ts.tuples = append(ts.tuples, dsts...)
				ts.hashes = data.HashColumns(b, nil, keys, ts.hashes)
			}
		}
	}
	encode(true)
	arena = nil // the kept tuples live in it
	m.set("data.encode_ns_per_tuple", "ns", timeKernel(rep, rows, func() { encode(false) }))

	out := data.NewBatch(wide[0].Schema, kernelBatch)
	m.set("data.decode_ns_per_tuple", "ns", timeKernel(rep, rows, func() {
		for i, t := range ts.tuples {
			if i%kernelBatch == 0 {
				out.Reset()
			}
			rc.AppendTo(out, t)
		}
	}))
	return ts
}

// coreKernels materializes the tuples through a Umami buffer with no budget,
// unpartitioned and partitioned from the first tuple: the paper's Fig. 2 gap.
func coreKernels(m metrics, ts tupleSet, rep time.Duration) {
	store := func(mode core.Mode) func() {
		return func() {
			buf := core.NewShared(core.Config{Mode: mode}).NewBuffer()
			for i, t := range ts.tuples {
				buf.StoreTuple(t, ts.hashes[i])
			}
			if err := buf.Finish(); err != nil {
				panic(fmt.Sprintf("materialize without a spill target failed: %v", err))
			}
		}
	}
	m.set("core.materialize_ns_per_tuple", "ns", timeKernel(rep, len(ts.tuples), store(core.ModeAdaptive)))
	m.set("core.partition_ns_per_tuple", "ns", timeKernel(rep, len(ts.tuples), store(core.ModeAlwaysPartition)))
}

// pagesKernels times the page layer and returns the tuples as sealed 64 KiB
// spill pages, the input codecs and frames see in a spilling query.
func pagesKernels(m metrics, ts tupleSet, rep time.Duration) [][]byte {
	var sealed [][]byte
	pg := pages.New(pages.DefaultPageSize)
	for _, t := range ts.tuples {
		if _, ok := pg.Append(t); !ok {
			sealed = append(sealed, pg.Seal())
			pg = pages.New(pages.DefaultPageSize)
			pg.Append(t)
		}
	}
	sealed = append(sealed, pg.Seal())

	pool := pages.NewPool(pages.DefaultPageSize, 0, nil)
	m.set("pages.pool_get_put_ns", "ns", timeKernel(rep, 1, func() { pool.Put(pool.Get()) }))

	pg = pages.New(pages.DefaultPageSize)
	m.set("pages.page_append_ns_per_tuple", "ns", timeKernel(rep, len(ts.tuples), func() {
		for _, t := range ts.tuples {
			if _, ok := pg.Append(t); !ok {
				pg.Reset()
				pg.Append(t)
			}
		}
	}))

	payload := sealed[0]
	framed := make([]byte, 0, len(payload)+pages.FrameSize)
	m.set("pages.frame_ns_per_byte", "ns", timeKernel(rep, len(payload), func() {
		framed = pages.AppendFrame(framed[:0], 3, 7, payload)
		if _, err := pages.VerifyFrame(framed, 3, 7); err != nil {
			panic(fmt.Sprintf("frame just written does not verify: %v", err))
		}
	}))
	return sealed
}

func codecKernels(m metrics, spillPages [][]byte, rep time.Duration) {
	spillPages = spillPages[:min(len(spillPages), codecPages)]
	raw := 0
	for _, p := range spillPages {
		raw += len(p)
	}
	for _, name := range []string{"lz4-a8", "lz4", "deflate-1", "deflate-6"} {
		c := codec.ByName(name)
		packed := make([][]byte, len(spillPages))
		stored := 0
		for i, p := range spillPages {
			packed[i] = c.Compress(nil, p)
			stored += len(packed[i])
		}
		var buf []byte
		m.set("codec."+name+".compress_ns_per_byte", "ns", timeKernel(rep, raw, func() {
			for _, p := range spillPages {
				buf = c.Compress(buf[:0], p)
			}
		}))
		m.set("codec."+name+".decompress_ns_per_byte", "ns", timeKernel(rep, raw, func() {
			for _, p := range packed {
				var err error
				if buf, err = c.Decompress(buf[:0], p); err != nil {
					panic(fmt.Sprintf("%s cannot read its own output: %v", name, err))
				}
			}
		}))
		m.set("codec."+name+".ratio", "ratio", ratio(float64(raw), float64(stored)))
	}
}

// colstoreKernels encodes and decodes the first row group of every lineitem
// column, as WriteTable and an external scan do.
func colstoreKernels(m metrics, lineitem *colstore.MemTable, rows int, rep time.Duration) {
	rows = min(rows, lineitem.GroupRows(0))
	cols := lineitem.Schema().Len()
	chunks := make([][]byte, cols)
	for c := range chunks {
		chunks[c] = colstore.EncodeChunk(nil, lineitem.Column(c), 0, rows)
	}
	var buf []byte
	m.set("colstore.encode_ns_per_value", "ns", timeKernel(rep, rows*cols, func() {
		for c := 0; c < cols; c++ {
			buf = colstore.EncodeChunk(buf[:0], lineitem.Column(c), 0, rows)
		}
	}))
	out := data.NewBatch(lineitem.Schema(), rows)
	m.set("colstore.decode_ns_per_value", "ns", timeKernel(rep, rows*cols, func() {
		out.Reset()
		for c, chunk := range chunks {
			if _, err := colstore.DecodeChunk(&out.Cols[c], chunk); err != nil {
				panic(fmt.Sprintf("chunk just encoded does not decode: %v", err))
			}
		}
	}))
}

// ioKernels times the CPU a request costs on its way to a device that takes
// no time: an array of zero-latency, unlimited-bandwidth devices. One round
// trip is a 64 KiB write and the read of what it wrote: two requests.
func ioKernels(m metrics, rep time.Duration) {
	block := make([]byte, ioBlock)
	back := make([]byte, ioBlock)
	newArray := func() *nvmesim.Array { return nvmesim.New(8, nvmesim.DeviceSpec{}, nvmesim.RealClock{}) }

	roundTrips := func(ring *uring.Ring) func() {
		arr := ring.Array()
		var done []uring.Completion
		return func() {
			lease := arr.NewLease() // freed each call, so the array does not grow
			ring.SetLease(lease)
			for i := 0; i < 16; i++ {
				loc, err := ring.QueueWrite(block, 1)
				if err != nil {
					panic(fmt.Sprintf("write to a healthy array failed: %v", err))
				}
				done = ring.WaitAll(done[:0])
				ring.QueueRead(loc, back, 2)
				done = ring.WaitAll(done[:0])
			}
			lease.Free()
		}
	}
	m.set("uring.submit_poll_ns_per_op", "ns", timeKernel(rep, 32, roundTrips(uring.New(newArray()))))

	// The same round trips through a ring bound to a scheduler. The figure
	// includes the ring's own cost: the two are a few microseconds each and
	// vary by as much with the state of the heap, so their difference, taken
	// from two separate timings, came out negative as often as not.
	arr := newArray()
	bound := uring.New(arr)
	bound.Bind(iosched.New(arr, iosched.Config{}), uring.ClassDemand, 1)
	m.set("iosched.dispatch_ns_per_op", "ns", timeKernel(rep, 32, roundTrips(bound)))

	arr = newArray()
	m.set("nvmesim.write_ns_per_op", "ns", timeKernel(rep, 16, func() {
		lease := arr.NewLease()
		for i := 0; i < 16; i++ {
			off, err := arr.AllocSpillLease(i%arr.Devices(), ioBlock, lease)
			if err == nil {
				_, err = arr.Write(i%arr.Devices(), off, block)
			}
			if err != nil {
				panic(fmt.Sprintf("write to a healthy array failed: %v", err))
			}
		}
		lease.Free()
	}))
}

// cacheKernels keeps the result cache visible: it is off in every workload.
// The cached batch is a 100-row result; the cache is memory-only.
func cacheKernels(m metrics, lineitem *colstore.MemTable, rep time.Duration) {
	src := cut(lineitem, kernelBatch, "l_orderkey", "l_extendedprice", "l_shipdate", "l_shipmode")[0]
	res := data.NewBatch(src.Schema, 100)
	for r := 0; r < 100; r++ {
		res.AppendRowFrom(src, r)
	}
	c := rescache.New(rescache.Config{Capacity: 8 << 20})
	var plan uint64
	m.set("cache.put_us", "us", timeKernel(rep, 1, func() {
		plan++
		c.Put(rescache.Key{Plan: plan}, res, time.Second)
	})/1e3)
	hot := rescache.Key{Plan: plan}
	m.set("cache.get_hot_us", "us", timeKernel(rep, 1, func() {
		if b, _, _ := c.Get(hot); b == nil {
			panic("entry just put is not in the cache")
		}
	})/1e3)
}

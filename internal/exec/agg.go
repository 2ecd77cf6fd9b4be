package exec

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/hll"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/trace"
)

// AggFunc is an aggregate function.
type AggFunc int

// Aggregate functions. CountStar counts rows; Count counts non-NULL values
// of a column (the distinction matters after outer joins, e.g. Q13).
const (
	Sum AggFunc = iota
	Count
	CountStar
	Min
	Max
	Avg
)

// AggSpec is one aggregate: Func over column Col (ignored for CountStar),
// named As in the output schema.
type AggSpec struct {
	Func AggFunc
	Col  string
	As   string
}

// Agg is the unified hash aggregation (§4.6). Worker threads pre-aggregate
// into small thread-local tables; full tables flush their groups as partial
// aggregate tuples into Umami, which adaptively partitions and spills.
// Workers that observe high group cardinality bypass pre-aggregation, since
// it only wastes cache space then (the paper's cardinality-adaptive
// behavior). Phase 2 merges in-memory partials into a sharded global group
// table and processes spilled partitions independently (aggtable.go).
type Agg struct {
	Child   Node
	GroupBy []string
	Aggs    []AggSpec

	schema  *data.Schema // output schema
	partial *data.Schema // materialized partial-aggregate schema
	states  []stateDef

	rc        *data.RowCodec // codec of the partial tuple
	keyFields []int          // the group key: partial fields 0..len(GroupBy)-1
	keyNulls  []byte         // the key fields' bits of the partial tuple's null bitmap
	minMax    []bool         // per partial field: Min/Max state, NULL until it sees a value
	// Group-table layout (aggtable.go): int64, float64 and seen slots per
	// group, and the encoded key width (0 when a string key makes it vary).
	ni, nf, nm int
	keyW       int
}

// stateDef maps one aggregate to its partial-state fields.
type stateDef struct {
	fn     AggFunc
	col    int // input column (-1 = CountStar)
	typ    data.Type
	fields []int // field indices in the partial tuple
	at     []int // per field: its slot in the group table's ints or floats
	mm     int   // Min/Max: its slot in the group table's seen flags
}

// strMinMax reports whether the aggregate is a Min or Max over strings,
// whose values each phase keeps its own way.
func (sd *stateDef) strMinMax() bool {
	return (sd.fn == Min || sd.fn == Max) && sd.typ == data.String
}

// NewAgg constructs an aggregation node.
func NewAgg(child Node, groupBy []string, aggs []AggSpec) *Agg {
	a := &Agg{Child: child, GroupBy: groupBy, Aggs: aggs}
	in := child.Schema()
	out := &data.Schema{}
	part := &data.Schema{}
	fixedKey := true
	for i, g := range groupBy {
		cd := in.Cols[in.MustIndex(g)]
		out.Cols = append(out.Cols, cd)
		part.Cols = append(part.Cols, cd)
		a.keyFields = append(a.keyFields, i)
		fixedKey = fixedKey && cd.Type != data.String
	}
	for i, spec := range aggs {
		name := spec.As
		if name == "" {
			name = fmt.Sprintf("agg%d", i)
		}
		sd := stateDef{fn: spec.Func, col: -1}
		if spec.Func != CountStar {
			sd.col = in.MustIndex(spec.Col)
			sd.typ = in.Cols[sd.col].Type
		}
		addField := func(t data.Type) {
			sd.fields = append(sd.fields, part.Len())
			part.Cols = append(part.Cols, data.ColumnDef{Name: fmt.Sprintf("s%d_%d", i, len(sd.fields)), Type: t})
			if t == data.Float64 {
				sd.at = append(sd.at, a.nf)
				a.nf++
			} else {
				sd.at = append(sd.at, a.ni)
				a.ni++
			}
		}
		switch spec.Func {
		case Sum:
			addField(data.Float64)
			out.Cols = append(out.Cols, data.ColumnDef{Name: name, Type: data.Float64})
		case Count, CountStar:
			addField(data.Int64)
			out.Cols = append(out.Cols, data.ColumnDef{Name: name, Type: data.Int64})
		case Min, Max:
			addField(sd.typ)
			out.Cols = append(out.Cols, data.ColumnDef{Name: name, Type: sd.typ})
			sd.mm = a.nm
			a.nm++
		case Avg:
			addField(data.Float64)
			addField(data.Int64)
			out.Cols = append(out.Cols, data.ColumnDef{Name: name, Type: data.Float64})
		}
		a.states = append(a.states, sd)
	}
	a.schema = out
	a.partial = part
	a.rc = data.NewRowCodec(part.Types())
	a.keyNulls = make([]byte, (len(groupBy)+7)/8)
	for k := range groupBy {
		a.keyNulls[k/8] |= 1 << (k % 8)
	}
	a.minMax = make([]bool, part.Len())
	for _, sd := range a.states {
		if sd.fn == Min || sd.fn == Max {
			a.minMax[sd.fields[0]] = true
		}
	}
	if fixedKey {
		// Take the width from the codec: the key copy of an all-zero tuple.
		size, _ := a.rc.FixedSize()
		a.keyW = len(a.rc.AppendKey(nil, make([]byte, size), len(groupBy)))
	}
	return a
}

// Schema implements Node.
func (a *Agg) Schema() *data.Schema { return a.schema }

const (
	localAggSlots   = 1 << 12 // thread-local table size (cache-resident, §4.6)
	localAggMax     = localAggSlots * 3 / 4
	preAggProbeRows = 1 << 14 // rows before judging pre-agg effectiveness
)

// Run implements Node.
func (a *Agg) Run(ctx *Ctx) (*Stream, error) {
	if err := checkSchemaCols(a.Child.Schema(), a.GroupBy); err != nil {
		return nil, err
	}
	var label string
	if len(a.GroupBy) > 0 {
		label = "group=" + strings.Join(a.GroupBy, ",")
	}
	sp := ctx.Trace.Start("agg", label)
	defer ctx.Trace.EndScope(sp)
	pc := ctx.phaseStart()
	res, distinct, err := a.materialize(ctx, sp)
	if err != nil {
		return nil, err
	}
	ctx.spanPhase(sp, pc)
	return a.mergePhase(ctx, sp, res, distinct)
}

// materialize runs phase 1: it consumes the input with local
// pre-aggregation, materializing partial aggregate tuples through Umami, and
// returns their Result and its estimate of the number of groups.
func (a *Agg) materialize(ctx *Ctx, sp *trace.Span) (*core.Result, int64, error) {
	in, err := a.Child.Run(ctx)
	if err != nil {
		return nil, 0, err
	}
	keyCols := indicesOf(a.Child.Schema(), a.GroupBy)

	cfg := ctx.coreConfig()
	shared := ctx.newShared(cfg)
	workers := ctx.workers()

	// Each worker sketches the key hashes it materializes, so phase 2 sizes
	// its tables from the distinct group count (§4.4) — the tuple count only
	// bounds it from above, and overshoots by the factor pre-aggregation
	// failed to merge.
	sketches := make([]hll.Sketch, workers)
	err = drainWorkers(ctx, "agg", in, func(w int) (func(*data.Batch) error, func() error) {
		aw := newAggWorker(a, keyCols, shared.NewBuffer(), &sketches[w], !ctx.Grace)
		consume := func(b *data.Batch) error {
			aw.consume(b)
			return nil
		}
		finish := func() error {
			aw.flushAll()
			err := aw.buf.Finish()
			aw.free()
			return err
		}
		return consume, finish
	})
	if err != nil {
		return nil, 0, err
	}
	res, err := ctx.finalize(sp, shared)
	if err != nil {
		return nil, 0, err
	}
	for w := 1; w < workers; w++ {
		sketches[0].Merge(&sketches[w])
	}
	return res, int64(sketches[0].Estimate()), nil
}

// aggWorker is one worker's phase-1 state. Its arrays outlive the query: a
// worker takes a recycled aggWorker, sized for the aggregation at hand, and
// hands it back when it finishes.
type aggWorker struct {
	a       *Agg
	keyCols []int
	buf     *core.Buffer
	sketch  *hll.Sketch // key hashes of the tuples materialized
	hashes  []uint64    // per-batch key hashes (HashColumns output)
	gs      []int32     // per live row of the batch: its local group

	// The input batch seen through the partial schema, the state columns it
	// has to compute, and the batch encoder.
	view    data.Batch
	scratch []data.Column
	ones    []int64
	enc     batchEncoder

	preAgg bool
	rows   int64 // rows consumed with pre-aggregation on
	opened int64 // of which opened a group

	// The thread-local table: at most localAggMax groups, numbered as they
	// open. Group g's key hash is ghash[g] and its key is row g of keys, one
	// column per key. Its states are laid out a slot per column (span
	// localAggMax), string Min/Max values in strs at mm*localAggMax+g, so that
	// a flush hands the encoder the table's own columns, cut to n rows.
	slots  [localAggSlots]int32 // group + 1; 0 = empty
	n      int
	ghash  []uint64
	keys   []data.Column
	states aggStates
	strs   []string
	unseen []bool      // flush scratch: the NULL marks of the Min/Max columns
	out    *data.Batch // flush scratch: the table as a batch
}

var aggWorkers pages.FreeList[aggWorker]

func newAggWorker(a *Agg, keyCols []int, buf *core.Buffer, sketch *hll.Sketch, preAgg bool) *aggWorker {
	aw := aggWorkers.Get()
	if aw == nil {
		aw = &aggWorker{}
	}
	aw.a, aw.keyCols, aw.buf, aw.sketch, aw.preAgg = a, keyCols, buf, sketch, preAgg
	aw.rows, aw.opened, aw.n = 0, 0, 0
	if !preAgg {
		return aw
	}
	// The table starts zeroed, and a flush zeroes what it used; a recycled
	// worker's arrays are zeroed here, whatever the last one left.
	aw.ghash = sized(aw.ghash, localAggMax)
	aw.keys = sized(aw.keys, len(keyCols))
	for k := range aw.keys {
		c := &aw.keys[k]
		c.Type = a.partial.Cols[k].Type
		c.Null = zeroed(c.Null, localAggMax)
		i, f, str := c.I, c.F, c.S
		c.I, c.F, c.S = nil, nil, nil
		switch c.Type {
		case data.Float64:
			c.F = zeroed(f, localAggMax)
		case data.String:
			c.S = zeroed(str, localAggMax)
		default:
			c.I = zeroed(i, localAggMax)
		}
	}
	aw.states = aggStates{
		ints:   zeroed(aw.states.ints, a.ni*localAggMax),
		floats: zeroed(aw.states.floats, a.nf*localAggMax),
		seen:   zeroed(aw.states.seen, a.nm*localAggMax),
		ni:     1, nf: 1, nm: 1,
		span: localAggMax,
	}
	aw.unseen = sized(aw.unseen, a.nm*localAggMax)
	aw.strs = aw.strs[:0]
	for i := range a.states {
		if a.states[i].strMinMax() {
			aw.strs = zeroed(aw.strs, a.nm*localAggMax)
			break
		}
	}
	aw.out = data.NewBatch(a.partial, 0)
	return aw
}

// free hands the worker to the recycler, keeping its arrays and dropping
// every reference to the query's batches, strings and buffers.
func (aw *aggWorker) free() {
	aw.a, aw.keyCols, aw.buf, aw.sketch, aw.out = nil, nil, nil, nil, nil
	clear(aw.view.Cols[:cap(aw.view.Cols)])
	aw.view = data.Batch{Cols: aw.view.Cols[:0]}
	for k := range aw.keys {
		clear(aw.keys[k].S)
	}
	clear(aw.strs)
	aw.enc.free()
	aw.slots = [localAggSlots]int32{}
	aggWorkers.Put(aw)
}

// zeroed returns s with length n and every entry zero, reusing its array when
// that is large enough.
func zeroed[T any](s []T, n int) []T {
	s = sized(s, n)
	clear(s)
	return s
}

// consume processes one input batch. Key hashes are computed for the whole
// batch column-at-a-time and the batch is seen through the partial schema.
// With pre-aggregation on, the live rows are resolved to local groups into an
// index vector, up to the row whose new group would overflow the table, and
// that prefix is folded a state column at a time; then the table is flushed
// and the rest resolved. With it off, the rest of the batch is materialized
// as it stands.
//
// A table that overflows turns Umami's partitioning on before its flush: the
// aggregation has more groups than a worker's table holds, so phase 2 merges
// it a partition at a time (mergePhase). The bypass needs no call of its own:
// it follows at least four overflows.
func (aw *aggWorker) consume(b *data.Batch) {
	aw.hashes = data.HashColumns(b, b.Sel, aw.keyCols, aw.hashes[:0])
	sel := b.Sel
	if sel == nil {
		sel = aw.enc.rows(b.Len())
	}
	view := aw.partialView(b, sel)
	n := len(sel)
	aw.gs = sized(aw.gs, n)
	i := 0
	for i < n && aw.preAgg {
		end := n
		if aw.rows < preAggProbeRows {
			end = min(n, i+int(preAggProbeRows-aw.rows))
		}
		j := aw.resolve(b, sel, i, end)
		aw.fold(view, sel[i:j], aw.gs[i:j])
		aw.rows += int64(j - i)
		switch {
		case j < end:
			aw.buf.Partition()
			aw.flushAll()
		// Cardinality adaptivity: when almost every row of the probe window
		// opened a new group, pre-aggregation buys nothing — bypass it
		// (§4.6). The table holds at most localAggMax groups between
		// flushes, so its size says nothing; count the groups opened.
		case aw.rows == preAggProbeRows && aw.opened > aw.rows*3/4:
			aw.flushAll()
			aw.preAgg = false
		}
		i = j
	}
	if i < n {
		// Bypass: a row's partial state is a function of the row alone, so
		// the view is written as it stands.
		aw.sketch.AddAll(aw.hashes[i:])
		aw.enc.encode(aw.buf, aw.a.rc, view, sel[i:], aw.hashes[i:])
	}
}

// partialView returns b seen through the partial schema: key columns and
// Min/Max inputs aliased, counts and sums computed per column for the rows
// sel only.
func (aw *aggWorker) partialView(b *data.Batch, sel []int32) *data.Batch {
	a := aw.a
	n := b.Len()
	for len(aw.ones) < n {
		aw.ones = append(aw.ones, 1)
	}
	v := &aw.view
	v.Schema = a.partial
	v.Cols = sized(v.Cols, a.partial.Len())
	aw.scratch = sized(aw.scratch, a.partial.Len())
	for i, c := range aw.keyCols {
		v.Cols[i] = b.Cols[c]
	}
	// count is the count state of one row: 1, or 0 where the input is NULL.
	count := func(f int, null []bool) data.Column {
		if null == nil {
			return data.Column{Type: data.Int64, I: aw.ones[:n]}
		}
		out := sized(aw.scratch[f].I, n)
		aw.scratch[f].I = out
		for _, r := range sel {
			out[r] = 1
			if null[r] {
				out[r] = 0
			}
		}
		return data.Column{Type: data.Int64, I: out}
	}
	for i := range a.states {
		sd := &a.states[i]
		f := sd.fields[0]
		if sd.fn == CountStar {
			v.Cols[f] = count(f, nil)
			continue
		}
		c := &b.Cols[sd.col]
		switch sd.fn {
		case Count:
			v.Cols[f] = count(f, c.Null)
		case Min, Max:
			// NULL in, NULL out: a partial Min/Max that saw no value.
			v.Cols[f] = *c
		case Sum, Avg:
			if sd.fn == Avg {
				v.Cols[sd.fields[1]] = count(sd.fields[1], c.Null)
			}
			if c.Type == data.Float64 && c.Null == nil {
				v.Cols[f] = data.Column{Type: data.Float64, F: c.F}
				break
			}
			// The sum state of one row: its value as a float, 0 for NULL.
			out := sized(aw.scratch[f].F, n)
			aw.scratch[f].F = out
			for _, r := range sel {
				switch {
				case c.Null != nil && c.Null[r]:
					out[r] = 0
				case c.Type == data.Float64:
					out[r] = c.F[r]
				default:
					out[r] = float64(c.I[r])
				}
			}
			v.Cols[f] = data.Column{Type: data.Float64, F: out}
		}
	}
	v.SetLen(n)
	return v
}

// resolve sets gs[i] to the local group of live row i, whose physical row is
// sel[i], for i from from up to end, opening groups as it goes. It stops at
// the first row whose group would overflow the table and returns where it
// stopped.
func (aw *aggWorker) resolve(b *data.Batch, sel []int32, from, end int) int {
	for i := from; i < end; i++ {
		h, r := aw.hashes[i], int(sel[i])
		idx := h & (localAggSlots - 1)
		for {
			s := aw.slots[idx]
			if s == 0 {
				if aw.n == localAggMax {
					return i
				}
				aw.gs[i] = aw.openLocal(b, r, h)
				aw.slots[idx] = aw.gs[i] + 1
				break
			}
			if g := s - 1; aw.ghash[g] == h && aw.sameKey(g, b, r) {
				aw.gs[i] = g
				break
			}
			idx = (idx + 1) & (localAggSlots - 1)
		}
	}
	return end
}

// openLocal opens a local group for row r, whose key hash is h. Its states
// are zero: the table starts zeroed, and a flush zeroes what it used.
func (aw *aggWorker) openLocal(b *data.Batch, r int, h uint64) int32 {
	g := aw.n
	aw.n++
	aw.opened++
	aw.ghash[g] = h
	for k, c := range aw.keyCols {
		in, key := &b.Cols[c], &aw.keys[k]
		key.Null[g] = in.Null != nil && in.Null[r]
		switch key.Type {
		case data.Float64:
			key.F[g] = in.F[r]
		case data.String:
			key.S[g] = in.S[r]
		default:
			key.I[g] = in.I[r]
		}
	}
	return int32(g)
}

// sameKey reports whether row r of b has local group g's key; NULL matches
// NULL, and floats compare by their bits, as they hash and as phase 2
// compares them: NaN is one group, +0 and −0 are two.
func (aw *aggWorker) sameKey(g int32, b *data.Batch, r int) bool {
	for k, c := range aw.keyCols {
		in, key := &b.Cols[c], &aw.keys[k]
		null := in.Null != nil && in.Null[r]
		if null != key.Null[g] {
			return false
		}
		if null {
			continue
		}
		switch key.Type {
		case data.Float64:
			if math.Float64bits(in.F[r]) != math.Float64bits(key.F[g]) {
				return false
			}
		case data.String:
			if in.S[r] != key.S[g] {
				return false
			}
		default:
			if in.I[r] != key.I[g] {
				return false
			}
		}
	}
	return true
}

// fold folds state row rows[i] of the partial view into local group gs[i],
// with the kernels phase 2 folds partial tuples with.
func (aw *aggWorker) fold(view *data.Batch, rows, gs []int32) {
	a := aw.a
	a.foldStates(aw.states, view.Cols, rows, gs)
	for i := range a.states {
		sd := &a.states[i]
		if !sd.strMinMax() {
			continue
		}
		c, at := &view.Cols[sd.fields[0]], sd.mm*localAggMax
		if sd.fn == Min {
			foldMin(aw.strs[at:], 1, aw.states.seen[at:], 1, c.S, c.Null, rows, gs)
		} else {
			foldMax(aw.strs[at:], 1, aw.states.seen[at:], 1, c.S, c.Null, rows, gs)
		}
	}
}

// flushAll writes every local group into Umami as a partial tuple and
// empties the table (the paper evicts groups to partition pages; flushing
// whole tables is the allocation-friendly equivalent, see DESIGN.md). The
// table's columns, cut to its groups, go through the batch encoder with the
// stored key hashes.
func (aw *aggWorker) flushAll() {
	n := aw.n
	if n == 0 {
		return
	}
	a, st, out := aw.a, &aw.states, aw.out
	for k := range aw.keys {
		c, key := &out.Cols[k], &aw.keys[k]
		c.I, c.F, c.S, c.Null = head(key.I, n), head(key.F, n), head(key.S, n), key.Null[:n]
	}
	for i := range a.states {
		sd := &a.states[i]
		for k, f := range sd.fields {
			c, at := &out.Cols[f], sd.at[k]*localAggMax
			switch {
			case c.Type == data.String:
				c.S = aw.strs[sd.mm*localAggMax:][:n]
			case c.Type == data.Float64:
				c.F = st.floats[at : at+n]
			default:
				c.I = st.ints[at : at+n]
			}
			if a.minMax[f] {
				// A Min/Max that saw no value travels as NULL.
				at := sd.mm * localAggMax
				c.Null = aw.unseen[at : at+n]
				for g := range c.Null {
					c.Null[g] = !st.seen[at+g]
				}
			}
		}
	}
	out.SetLen(n)
	aw.sketch.AddAll(aw.ghash[:n])
	aw.enc.encode(aw.buf, a.rc, out, nil, aw.ghash[:n])

	clearHeads(st.ints, n)
	clearHeads(st.floats, n)
	clearHeads(st.seen, n)
	clearHeads(aw.strs, n) // and let go of the strings
	for k := range aw.keys {
		clear(head(aw.keys[k].S, n))
	}
	aw.slots = [localAggSlots]int32{}
	aw.n = 0
}

// head returns the first n entries of s, or nil for a column without them.
func head[T any](s []T, n int) []T {
	if s == nil {
		return nil
	}
	return s[:n]
}

// clearHeads zeroes the first n entries of every localAggMax-long column of s.
func clearHeads[T any](s []T, n int) {
	for lo := 0; lo < len(s); lo += localAggMax {
		clear(s[lo : lo+n])
	}
}

const (
	// aggShards is the shard count of the global group table. Shards are
	// indexed by a hash prefix, so partitioned inputs touch disjoint shards
	// (§5.3 locality).
	aggShards = 64
	// emitRows bounds a batch the aggregation or the join emits: large
	// enough that the per-batch cost downstream is amortized, small enough
	// that the columns of the batches in flight stay a few hundred KiB per
	// worker, whatever the group count or the join's fan-out.
	emitRows = 8192
)

// mergePhase builds the final tables and returns the output stream.
// distinct is phase 1's estimate of the number of groups.
func (a *Agg) mergePhase(ctx *Ctx, sp *trace.Span, res *core.Result, distinct int64) (*Stream, error) {
	mergePC := ctx.phaseStart()
	workers := ctx.workers()
	mask := res.Mask
	shiftP := uint(64 - log2(uint64(res.Partitions)))
	shiftS := uint(64 - log2(aggShards))

	// The work units: each unpartitioned page on its own, then each
	// partition's pages together, so that one worker merges a partition into
	// its shards while their tables stay in its cache (§5.3 locality).
	units := make([][]*pages.Page, 0, len(res.Unpartitioned)+len(res.InMemory))
	for i := range res.Unpartitioned {
		units = append(units, res.Unpartitioned[i:i+1])
	}
	for _, pgs := range res.InMemory {
		if len(pgs) > 0 {
			units = append(units, pgs)
		}
	}
	var tuples int64
	for _, u := range units {
		for _, pg := range u {
			tuples += int64(pg.Tuples())
		}
	}
	// The global shards take the groups of the tuples that stayed in
	// memory; an eighth over the even share covers the sketch's error and
	// the hash's imbalance.
	shardHint := 0
	if stored := res.Counters[metrics.TuplesStored]; stored > 0 {
		shardHint = int(float64(distinct) * float64(tuples) / float64(stored) / aggShards * 9 / 8)
	}
	global := make([]groupTable, aggShards)
	for s := range global {
		global[s] = groupTable{a: a, hint: shardHint}
	}
	// Overflow: tuples on in-memory pages that belong to spilled
	// partitions must merge with the spilled data, not the global table
	// (they may share groups with spilled partial tuples).
	overflow := make([][][]byte, res.Partitions)
	var ovMu sync.Mutex

	var cursor atomic.Int64
	err := runWorkers("agg-merge", workers, func(w int) error {
		// One unit at a time, and one page at a time: hash its tuples once,
		// cluster them by shard with a counting sort, then merge each shard's
		// tuples under one lock in runs of at most mergeRunMax. A page whose
		// tuples share one shard, as a partition's do when partitions are
		// shards, is merged where it lies. Bucket aggShards collects the
		// overflow tuples.
		var starts [aggShards + 3]int32
		st := getMergeStage()
		defer st.free()
		bucket := func(h uint64) int {
			if mask&(1<<(h>>shiftP)) != 0 {
				return aggShards
			}
			return int(h >> shiftS)
		}
		localOv := make([][][]byte, res.Partitions)
		// Overflow tuples are copied through an arena: one allocation per
		// 64 KiB chunk instead of one per tuple.
		var tupArena data.ByteArena
		merge := func(pg *pages.Page) {
			n := pg.Tuples()
			if n == 0 {
				return
			}
			views, hashes := sized(st.page, n), sized(st.pageHs, n)
			st.page, st.pageHs = views, hashes
			clear(starts[:])
			for i := range hashes {
				views[i] = pg.Tuple(i)
				hashes[i] = a.rc.HashTuple(views[i], a.keyFields)
				starts[bucket(hashes[i])+2]++
			}
			one := bucket(hashes[0])
			single := int(starts[one+2]) == n
			for s := 2; s < len(starts); s++ {
				starts[s] += starts[s-1]
			}
			tuples, hs := views, hashes
			if single {
				starts[one+1] = int32(n)
			} else {
				// starts[s+1] is bucket s's write cursor: its start now, its
				// end after the scatter, which makes starts[s] its start.
				tuples, hs = sized(st.tuples, n), sized(st.hashes, n)
				for i, h := range hashes {
					s := bucket(h) + 1
					tuples[starts[s]], hs[starts[s]] = views[i], h
					starts[s]++
				}
				st.tuples, st.hashes = tuples, hs
			}
			for s := range global {
				lo, hi := starts[s], starts[s+1]
				if lo == hi {
					continue
				}
				t := &global[s]
				t.mu.Lock()
				for ; lo < hi; lo += mergeRunMax {
					end := min(hi, lo+mergeRunMax)
					t.mergeRun(tuples[lo:end], hs[lo:end], st)
				}
				t.mu.Unlock()
			}
			for j := starts[aggShards]; j < starts[aggShards+1]; j++ {
				part := hs[j] >> shiftP
				localOv[part] = append(localOv[part], tupArena.Copy(tuples[j]))
			}
		}
		for {
			ui := int(cursor.Add(1) - 1)
			if ui >= len(units) {
				break
			}
			for _, pg := range units[ui] {
				merge(pg)
			}
		}
		ovMu.Lock()
		for p := range localOv {
			overflow[p] = append(overflow[p], localOv[p]...)
		}
		ovMu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Every in-memory tuple is merged or, overflow, copied: the pages are
	// dead, and the spilled partitions' merges take them from the recycler.
	res.Recycle()
	if len(a.GroupBy) == 0 && res.Counters[metrics.TuplesStored] == 0 {
		// An aggregate without GROUP BY has one group whatever its input:
		// over no rows it is the partial state that saw nothing — counts and
		// sums zero, every Min/Max unseen (NULL).
		size, _ := a.rc.FixedSize()
		tuple := make([]byte, size)
		for f, mm := range a.minMax {
			if mm {
				a.rc.SetNull(tuple, f)
			}
		}
		global[0].mergeTuples([][]byte{tuple}, &mergeStage{})
	}
	ctx.spanPhase(sp, mergePC)

	// Output stream: tasks are global shards plus spilled partitions.
	type task struct {
		shard int // >= 0: global shard; -1: partition
		part  int
		pos   int // the partition's position in the readback's streams
	}
	var tasks []task
	for s := range global {
		if global[s].n > 0 {
			tasks = append(tasks, task{shard: s})
		}
	}
	// Spilled partitions go through the readback scheduler in task order,
	// so while one worker merges partition k the ring is already reading
	// the next partitions — the merge loop never stalls at a partition
	// boundary.
	streams := res.SpilledPartitions()
	for pos, p := range streams {
		tasks = append(tasks, task{shard: -1, part: p, pos: pos})
	}
	sched := core.NewPartitionScheduler(ctx.Context, ctx.Spill, ctx.Budget, core.DefaultReadDepth,
		[]*core.Result{res}, streams, func(n *metrics.Snapshot) { ctx.report(sp, n) })
	var taskCursor atomic.Int64

	// emitter is one worker's place in the output: the table it is walking
	// and how far it got. A worker merges every spilled partition it takes
	// into the one table it owns, emptied in between; its table and stage go
	// back to the recycler when it runs out of tasks, the global shards' when
	// every worker has.
	type emitter struct {
		t     *groupTable
		next  int
		own   *groupTable
		stage *mergeStage
		arena data.ByteArena
	}
	emitters := make([]emitter, workers)
	end := newOutputEnd(workers, func() {
		for s := range global {
			global[s].release()
		}
	})

	return ctx.traceStream(&Stream{
		schema: a.schema,
		next: func(w int, b *data.Batch) (int, error) {
			e := &emitters[w]
			for e.t == nil || e.next == e.t.n {
				ti := int(taskCursor.Add(1) - 1)
				if ti >= len(tasks) {
					if e.own != nil {
						e.own.release()
						e.stage.free()
						e.t, e.own, e.stage = nil, nil, nil
					}
					end.reach(w)
					return 0, nil
				}
				t := tasks[ti]
				e.next = 0
				if t.shard >= 0 {
					e.t = &global[t.shard]
					continue
				}
				if e.own == nil {
					e.own = &groupTable{a: a, hint: int(distinct / int64(res.Partitions) * 9 / 8)}
					e.stage = getMergeStage()
				}
				e.t = e.own
				e.t.reset()
				if err := a.mergePartition(e.t, e.stage, overflow[t.part], t.part, sched, t.pos); err != nil {
					return 0, err
				}
			}
			lo := e.next
			e.next = min(lo+emitRows, e.t.n)
			b.Reset()
			e.t.emit(b, lo, e.next, &e.arena)
			return b.Len(), nil
		},
	}, sp), nil
}

// mergePartition merges one spilled partition (overflow tuples + read-back
// pages, streamed through the scheduler) into t, a run at a time.
func (a *Agg) mergePartition(t *groupTable, st *mergeStage, overflow [][]byte, part int, sched *core.PartitionScheduler, pos int) error {
	// Overflow holds every in-memory tuple of this partition (routed there
	// during the global merge); the spilled pages follow from the array.
	for len(overflow) > 0 {
		run := overflow[:min(len(overflow), mergeRunMax)]
		overflow = overflow[len(run):]
		t.mergeTuples(run, st)
	}
	cur := sched.Open(pos, 0)
	for {
		pg, err := cur.Next()
		if err != nil {
			return fmt.Errorf("exec: agg reading partition %d: %w", part, err)
		}
		if pg == nil {
			break
		}
		st.tuples = sized(st.tuples, pg.Tuples())
		for i := range st.tuples {
			st.tuples[i] = pg.Tuple(i)
		}
		t.mergeTuples(st.tuples, st)
	}
	// Every key and Min/Max string was copied into the table, so the
	// read-back buffers can be recycled before emitting.
	cur.Release()
	return nil
}

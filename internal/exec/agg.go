package exec

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/hll"
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
	// DisablePreAgg forces per-row materialization (the classical
	// partitioning-aggregation baseline of Figure 2).
	DisablePreAgg bool

	schema  *data.Schema // output schema
	partial *data.Schema // materialized partial-aggregate schema
	states  []stateDef

	rc        *data.RowCodec // codec of the partial tuple
	keyFields []int          // the group key: partial fields 0..len(GroupBy)-1
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

// aggVal is one partial-state slot.
type aggVal struct {
	i    int64
	f    float64
	s    string
	seen bool // Min/Max initialization, Count-NULL handling
}

// localGroup is one group in a thread-local pre-aggregation table.
type localGroup struct {
	hash     uint64
	nk       int // group key count
	keys     []aggVal
	keyNulls []bool
	vals     []aggVal
}

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
	in, err := a.Child.Run(ctx)
	if err != nil {
		return nil, err
	}
	inSchema := a.Child.Schema()
	keyCols := indicesOf(inSchema, a.GroupBy)

	cfg := ctx.coreConfig()
	shared := core.NewShared(cfg)
	workers := ctx.workers()

	// Phase 1: consume input with local pre-aggregation, materializing
	// partial aggregate tuples through Umami. Each worker sketches the key
	// hashes it materializes, so phase 2 sizes its tables from the distinct
	// group count (§4.4) — the tuple count only bounds it from above, and
	// overshoots by the factor pre-aggregation failed to merge.
	sketches := make([]hll.Sketch, workers)
	err = drainWorkers(ctx, "agg", in, func(w int) (func(*data.Batch) error, func() error) {
		aw := newAggWorker(a, keyCols, shared.NewBuffer(), &sketches[w], !a.DisablePreAgg && !ctx.NoPreAgg)
		consume := func(b *data.Batch) error {
			aw.consume(b)
			return nil
		}
		finish := func() error {
			aw.flushAll()
			return aw.buf.Finish()
		}
		return consume, finish
	})
	if err != nil {
		return nil, err
	}
	res, err := ctx.finalize(sp, shared)
	if err != nil {
		return nil, err
	}
	ctx.spanPhase(sp, pc)

	for w := 1; w < workers; w++ {
		sketches[0].Merge(&sketches[w])
	}
	return a.mergePhase(ctx, sp, res, int64(sketches[0].Estimate()))
}

// aggWorker is one worker's phase-1 state.
type aggWorker struct {
	a       *Agg
	keyCols []int
	buf     *core.Buffer
	sketch  *hll.Sketch // key hashes of the tuples materialized
	pb      *data.Batch // reusable 1-row partial batch for serialization
	hashes  []uint64    // per-batch key hashes (HashColumns output)

	// Pre-aggregation bypass: the input batch seen through the partial
	// schema, the state columns it has to compute, and the batch encoder.
	view    data.Batch
	scratch []data.Column
	ones    []int64
	enc     batchEncoder

	preAgg bool
	rows   int64 // rows consumed with pre-aggregation on
	opened int64 // of which opened a group

	nk, nv    int // group key / value state widths
	keyArena  []aggVal
	nullArena []bool
	valArena  []aggVal

	slots  [localAggSlots]int32 // group index + 1; 0 = empty
	groups []localGroup
}

func newAggWorker(a *Agg, keyCols []int, buf *core.Buffer, sketch *hll.Sketch, preAgg bool) *aggWorker {
	nk := len(keyCols)
	nv := a.partial.Len() - nk
	aw := &aggWorker{
		a:       a,
		keyCols: keyCols,
		buf:     buf,
		sketch:  sketch,
		pb:      data.NewBatch(a.partial, 1),
		preAgg:  preAgg,
		nk:      nk,
		nv:      nv,
		// Group key/value widths are fixed per query, so local groups
		// carve their slices out of flat arenas instead of allocating
		// three slices per group (a measured phase-1 hotspot).
		keyArena:  make([]aggVal, localAggMax*nk),
		nullArena: make([]bool, localAggMax*nk),
		valArena:  make([]aggVal, localAggMax*nv),
		groups:    make([]localGroup, 0, localAggMax),
	}
	aw.pb.SetLen(1)
	for i := range a.partial.Cols {
		c := &aw.pb.Cols[i]
		switch c.Type {
		case data.Float64:
			c.F = make([]float64, 1)
		case data.String:
			c.S = make([]string, 1)
		default:
			c.I = make([]int64, 1)
		}
	}
	return aw
}

// consume processes one input batch: key hashes are computed for the whole
// batch column-at-a-time, then each live row folds into the local table —
// or, with pre-aggregation off, the rest of the batch is materialized as it
// stands.
func (aw *aggWorker) consume(b *data.Batch) {
	aw.hashes = data.HashColumns(b, b.Sel, aw.keyCols, aw.hashes[:0])
	n := b.Rows()
	i := 0
	for ; i < n && aw.preAgg; i++ {
		r := b.Row(i)
		aw.rows++
		g := aw.lookup(b, r, aw.hashes[i])
		accumulateRow(aw.a.states, g, b, r)
		// Cardinality adaptivity: when almost every row of the probe window
		// opened a new group, pre-aggregation buys nothing — bypass it
		// (§4.6). The table holds at most localAggMax groups between
		// flushes, so its size says nothing; count the groups opened.
		if aw.rows == preAggProbeRows && aw.opened > aw.rows*3/4 {
			aw.flushAll()
			aw.preAgg = false
		}
	}
	if i < n {
		aw.bypass(b, i)
	}
}

// bypass writes the live rows of b from the from-th on directly as initial
// partial tuples, a batch at a time: a row's partial state is a function of
// the row alone, so the batch is viewed through the partial schema — key
// columns and Min/Max inputs aliased, counts and sums computed per column —
// and handed to the batch encoder.
func (aw *aggWorker) bypass(b *data.Batch, from int) {
	sel := b.Sel
	if sel == nil {
		sel = aw.enc.rows(b.Len())
	}
	sel, hs := sel[from:], aw.hashes[from:]
	aw.sketch.AddAll(hs)
	aw.enc.encode(aw.buf, aw.a.rc, aw.partialView(b, sel), sel, hs)
}

// partialView returns b seen through the partial schema; computed columns
// are filled for the rows sel only.
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

// lookup finds or creates the local group for row r; it flushes the table
// when full.
func (aw *aggWorker) lookup(b *data.Batch, r int, h uint64) *localGroup {
	for {
		idx := h & (localAggSlots - 1)
		for {
			s := aw.slots[idx]
			if s == 0 {
				break
			}
			g := &aw.groups[s-1]
			if g.hash == h && aw.keysEqual(g, b, r) {
				return g
			}
			idx = (idx + 1) & (localAggSlots - 1)
		}
		if len(aw.groups) >= localAggMax {
			aw.flushAll()
			continue
		}
		aw.opened++
		gi := len(aw.groups)
		aw.groups = append(aw.groups, localGroup{
			hash:     h,
			nk:       aw.nk,
			keys:     aw.keyArena[gi*aw.nk : (gi+1)*aw.nk : (gi+1)*aw.nk],
			keyNulls: aw.nullArena[gi*aw.nk : (gi+1)*aw.nk : (gi+1)*aw.nk],
			vals:     aw.valArena[gi*aw.nv : (gi+1)*aw.nv : (gi+1)*aw.nv],
		})
		g := &aw.groups[len(aw.groups)-1]
		for i := range g.vals {
			g.vals[i] = aggVal{}
		}
		for i, c := range aw.keyCols {
			col := &b.Cols[c]
			g.keyNulls[i] = col.Null != nil && col.Null[r]
			switch col.Type {
			case data.Float64:
				g.keys[i].f = col.F[r]
			case data.String:
				g.keys[i].s = col.S[r]
			default:
				g.keys[i].i = col.I[r]
			}
		}
		aw.slots[idx] = int32(len(aw.groups))
		return g
	}
}

func (aw *aggWorker) keysEqual(g *localGroup, b *data.Batch, r int) bool {
	for i, c := range aw.keyCols {
		col := &b.Cols[c]
		null := col.Null != nil && col.Null[r]
		if null != g.keyNulls[i] {
			return false
		}
		if null {
			continue
		}
		switch col.Type {
		case data.Float64:
			if g.keys[i].f != col.F[r] {
				return false
			}
		case data.String:
			if g.keys[i].s != col.S[r] {
				return false
			}
		default:
			if g.keys[i].i != col.I[r] {
				return false
			}
		}
	}
	return true
}

// flushAll serializes every local group as a partial tuple into Umami and
// clears the table (the paper evicts groups to partition pages; flushing
// whole tables is the allocation-friendly equivalent, see DESIGN.md).
func (aw *aggWorker) flushAll() {
	for i := range aw.groups {
		aw.serializeGroup(&aw.groups[i])
	}
	aw.groups = aw.groups[:0]
	aw.slots = [localAggSlots]int32{}
}

// serializeGroup writes one local group as a partial tuple.
func (aw *aggWorker) serializeGroup(g *localGroup) {
	pb := aw.pb
	nk := len(aw.keyCols)
	for i := 0; i < nk; i++ {
		c := &pb.Cols[i]
		setNull(c, g.keyNulls[i])
		switch c.Type {
		case data.Float64:
			c.F[0] = g.keys[i].f
		case data.String:
			c.S[0] = g.keys[i].s
		default:
			c.I[0] = g.keys[i].i
		}
	}
	for i := nk; i < pb.Schema.Len(); i++ {
		v := &g.vals[i-nk]
		c := &pb.Cols[i]
		setNull(c, !v.seen && aw.a.minMax[i])
		switch c.Type {
		case data.Float64:
			c.F[0] = v.f
		case data.String:
			c.S[0] = v.s
		default:
			c.I[0] = v.i
		}
	}
	aw.sketch.Add(g.hash)
	dst := aw.buf.AllocTuple(aw.a.rc.Size(pb, 0), g.hash)
	aw.a.rc.Encode(dst, pb, 0)
}

func setNull(c *data.Column, null bool) {
	if null {
		if c.Null == nil {
			c.Null = make([]bool, 1)
		}
		c.Null[0] = true
	} else if c.Null != nil {
		c.Null[0] = false
	}
}

// accumulateRow folds input row r into group state vals.
func accumulateRow(states []stateDef, g *localGroup, b *data.Batch, r int) {
	nk := g.nk
	for _, sd := range states {
		base := sd.fields[0] - nk
		switch sd.fn {
		case CountStar:
			g.vals[base].i++
		case Count:
			c := &b.Cols[sd.col]
			if c.Null == nil || !c.Null[r] {
				g.vals[base].i++
			}
		case Sum, Avg:
			c := &b.Cols[sd.col]
			if c.Null != nil && c.Null[r] {
				break
			}
			var v float64
			if c.Type == data.Float64 {
				v = c.F[r]
			} else {
				v = float64(c.I[r])
			}
			g.vals[base].f += v
			if sd.fn == Avg {
				g.vals[sd.fields[1]-nk].i++
			}
		case Min, Max:
			c := &b.Cols[sd.col]
			if c.Null != nil && c.Null[r] {
				break
			}
			v := &g.vals[base]
			switch c.Type {
			case data.Float64:
				x := c.F[r]
				if !v.seen || (sd.fn == Min && x < v.f) || (sd.fn == Max && x > v.f) {
					v.f = x
				}
			case data.String:
				x := c.S[r]
				if !v.seen || (sd.fn == Min && x < v.s) || (sd.fn == Max && x > v.s) {
					v.s = x
				}
			default:
				x := c.I[r]
				if !v.seen || (sd.fn == Min && x < v.i) || (sd.fn == Max && x > v.i) {
					v.i = x
				}
			}
			v.seen = true
		}
	}
}

const (
	// aggShards is the shard count of the global group table. Shards are
	// indexed by a hash prefix, so partitioned inputs touch disjoint shards
	// (§5.3 locality).
	aggShards = 64
	// emitRows bounds a batch the aggregation or the join emits to the column
	// capacity BatchPool retains (data.batchShrinkCap); a larger one is
	// reallocated per lease.
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

	memPages := make([]*pages.Page, 0, len(res.Unpartitioned)+len(res.InMemory))
	memPages = append(memPages, res.Unpartitioned...)
	memPages = append(memPages, res.InMemory...)
	var tuples int64
	for _, pg := range memPages {
		tuples += int64(pg.Tuples())
	}
	// The global shards take the groups of the tuples that stayed in
	// memory; an eighth over the even share covers the sketch's error and
	// the hash's imbalance.
	shardHint := 0
	if res.Tuples > 0 {
		shardHint = int(float64(distinct) * float64(tuples) / float64(res.Tuples) / aggShards * 9 / 8)
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
		// One page at a time: hash its tuples once, cluster their indexes
		// by shard with a counting sort, then take each shard's lock once
		// per run. Bucket aggShards collects the overflow tuples.
		var (
			hashes []uint64
			order  []int32
			starts [aggShards + 3]int32
		)
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
		for {
			pi := int(cursor.Add(1) - 1)
			if pi >= len(memPages) {
				break
			}
			pg := memPages[pi]
			n := pg.Tuples()
			hashes, order = sized(hashes, n), sized(order, n)
			clear(starts[:])
			for i := range hashes {
				hashes[i] = a.rc.HashTuple(pg.Tuple(i), a.keyFields)
				starts[bucket(hashes[i])+2]++
			}
			for s := 2; s < len(starts); s++ {
				starts[s] += starts[s-1]
			}
			// starts[s+1] is bucket s's write cursor: its start now, its end
			// after the scatter, which makes starts[s] its start.
			for i, h := range hashes {
				s := bucket(h) + 1
				order[starts[s]] = int32(i)
				starts[s]++
			}
			for s := range global {
				run := order[starts[s]:starts[s+1]]
				if len(run) == 0 {
					continue
				}
				t := &global[s]
				t.mu.Lock()
				for _, i := range run {
					t.merge(pg.Tuple(int(i)), hashes[i])
				}
				t.mu.Unlock()
			}
			for _, i := range order[starts[aggShards]:starts[aggShards+1]] {
				part := hashes[i] >> shiftP
				localOv[part] = append(localOv[part], tupArena.Copy(pg.Tuple(int(i))))
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
	if len(a.GroupBy) == 0 && res.Tuples == 0 {
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
		global[0].merge(tuple, a.rc.HashTuple(tuple, a.keyFields))
	}
	ctx.spanPhase(sp, mergePC)

	// Output stream: tasks are global shards plus spilled partitions.
	type task struct {
		shard int // >= 0: global shard; -1: partition
		part  int
		item  int // scheduler work item for partition tasks
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
	var items []core.PartitionWork
	anySlots := false
	for p := 0; p < res.Partitions; p++ {
		if mask&(1<<uint(p)) != 0 {
			tasks = append(tasks, task{shard: -1, part: p, item: len(items)})
			items = append(items, core.PartitionWork{Part: p, Slots: res.Spilled[p]})
			anySlots = anySlots || len(res.Spilled[p]) > 0
		}
	}
	var sched *core.PartitionScheduler
	if anySlots {
		sched = ctx.newPartitionScheduler(items, res.Stripes, core.DefaultReadDepth)
	}
	var taskCursor atomic.Int64

	// emitter is one worker's place in the output: the table it is walking
	// and how far it got. A worker merges every spilled partition it takes
	// into the one table it owns, emptied in between.
	type emitter struct {
		t     *groupTable
		next  int
		own   *groupTable
		arena data.ByteArena
	}
	emitters := make([]emitter, workers)

	return ctx.traceStream(&Stream{
		schema: a.schema,
		next: func(w int, b *data.Batch) (int, error) {
			e := &emitters[w]
			for e.t == nil || e.next == e.t.n {
				ti := int(taskCursor.Add(1) - 1)
				if ti >= len(tasks) {
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
				}
				e.t = e.own
				e.t.reset()
				if err := a.mergePartition(ctx, sp, e.t, overflow[t.part], t.part, sched, t.item); err != nil {
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
// pages, streamed through the scheduler) into t.
func (a *Agg) mergePartition(ctx *Ctx, sp *trace.Span, t *groupTable, overflow [][]byte, part int, sched *core.PartitionScheduler, item int) error {
	// Overflow holds every in-memory tuple of this partition (routed there
	// during the global merge); the spilled pages follow from the array.
	for _, tuple := range overflow {
		t.merge(tuple, a.rc.HashTuple(tuple, a.keyFields))
	}
	if sched == nil {
		return nil
	}
	cur := sched.Open(item)
	defer ctx.reportCursor(sp, cur)
	for {
		pg, err := cur.Next()
		if err != nil {
			return fmt.Errorf("exec: agg reading partition %d: %w", part, err)
		}
		if pg == nil {
			break
		}
		for i := 0; i < pg.Tuples(); i++ {
			tuple := pg.Tuple(i)
			t.merge(tuple, a.rc.HashTuple(tuple, a.keyFields))
		}
	}
	// Every key and Min/Max string was copied into the table, so the
	// read-back buffers can be recycled before emitting.
	cur.Release()
	return nil
}

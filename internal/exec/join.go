package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/hll"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/trace"
)

// JoinKind selects the join semantics. All kinds are probe-side preserving
// where applicable: Outer emits every probe row (padding build columns with
// NULL when unmatched), matching the paper's inner/semi/anti/outer set.
type JoinKind int

// Join kinds.
const (
	Inner JoinKind = iota
	Semi
	Anti
	Outer
)

// Join is the unified hash join (§4.5). It materializes the build side
// through Umami — so it starts as a simple in-memory hash join and
// adaptively partitions and spills — and executes its probe side like a
// hybrid hash join when partitions were spilled: probe tuples of spilled
// partitions first probe the in-memory table (which holds everything
// materialized before partitioning began), then follow their partition to
// the spilled phase.
//
// Under Ctx.ForceGrace, the operator instead behaves as the classical grace
// hash join baseline (§4.1): both sides always partition and every partition
// is joined separately — no streaming probe phase.
type Join struct {
	Build, Probe         Node
	BuildKeys, ProbeKeys []string
	Kind                 JoinKind

	schema *data.Schema
}

// NewJoin constructs a join node. The output schema is probe ⊕ build for
// Inner and Outer, probe only for Semi and Anti.
func NewJoin(kind JoinKind, build Node, buildKeys []string, probe Node, probeKeys []string) *Join {
	j := &Join{Build: build, Probe: probe, BuildKeys: buildKeys, ProbeKeys: probeKeys, Kind: kind}
	if len(buildKeys) != len(probeKeys) || len(buildKeys) == 0 {
		panic("exec: join key lists must be non-empty and of equal length")
	}
	switch kind {
	case Semi, Anti:
		j.schema = probe.Schema()
	default:
		j.schema = probe.Schema().Concat(build.Schema())
	}
	return j
}

// Schema implements Node.
func (j *Join) Schema() *data.Schema { return j.schema }

func indicesOf(s *data.Schema, names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = s.MustIndex(n)
	}
	return out
}

// Run implements Node.
func (j *Join) Run(ctx *Ctx) (*Stream, error) {
	if err := checkSchemaCols(j.Build.Schema(), j.BuildKeys); err != nil {
		return nil, err
	}
	if err := checkSchemaCols(j.Probe.Schema(), j.ProbeKeys); err != nil {
		return nil, err
	}
	sp := ctx.Trace.Start("join", j.label(ctx))
	defer ctx.Trace.EndScope(sp)
	pc := ctx.phaseStart()
	bres, rcB, bKeyFields, est, err := j.runBuild(ctx, sp)
	if err != nil {
		return nil, err
	}
	workers := ctx.workers()

	// Phase 2 preparation: the single in-memory hash table over ALL
	// in-memory pages — partitioned or not (§4.2 "Independence"). The
	// grace baseline has no streaming phase and builds no global table.
	var ht *joinTable
	routedMask := bres.Mask
	if ctx.ForceGrace {
		routedMask = ^uint64(0) >> (64 - uint(bres.Partitions))
	} else {
		memPages := make([]*pages.Page, 0, len(bres.Unpartitioned)+len(bres.InMemory))
		memPages = append(memPages, bres.Unpartitioned...)
		memPages = append(memPages, bres.InMemory...)
		ht, err = buildJoinTable(memPages, rcB, bKeyFields, 0, est, workers)
		if err != nil {
			return nil, err
		}
	}
	ctx.spanPhase(sp, pc)

	return j.probeStream(ctx, sp, bres, rcB, bKeyFields, ht, routedMask)
}

// label describes the join for its profile span.
func (j *Join) label(ctx *Ctx) string {
	kind := "inner"
	switch j.Kind {
	case Semi:
		kind = "semi"
	case Anti:
		kind = "anti"
	case Outer:
		kind = "outer"
	}
	if ctx.ForceGrace {
		kind += " grace"
	}
	return kind
}

// runBuild materializes the build side through Umami.
func (j *Join) runBuild(ctx *Ctx, sp *trace.Span) (*core.Result, *data.RowCodec, []int, int64, error) {
	bs, err := j.Build.Run(ctx)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	bSchema := j.Build.Schema()
	rcB := data.NewRowCodec(bSchema.Types())
	bKeyCols := indicesOf(bSchema, j.BuildKeys)

	cfg := ctx.coreConfig()
	if ctx.ForceGrace {
		cfg.Mode = core.ModeAlwaysPartition
	}
	shared := core.NewShared(cfg)
	workers := ctx.workers()
	// One HyperLogLog sketch per worker over the key hashes materialization
	// computes anyway (§4.5); their union sizes the global in-memory table.
	sketches := make([]hll.Sketch, workers)
	err = drainWorkers(ctx, "join-build", bs, func(w int) (func(*data.Batch) error, func() error) {
		buf := shared.NewBuffer()
		be := getBatchEncoder()
		consume := func(b *data.Batch) error {
			// Batch materialization: hashing, sizing, and encoding all run
			// column-at-a-time.
			be.materialize(buf, rcB, b, bKeyCols)
			sketches[w].AddAll(be.hs)
			return nil
		}
		finish := func() error {
			batchEncoders.Put(be)
			return buf.Finish()
		}
		return consume, finish
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	bres, err := ctx.finalize(sp, shared)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	var est int64
	if !ctx.ForceGrace { // the grace baseline builds no global table
		for w := 1; w < workers; w++ {
			sketches[0].Merge(&sketches[w])
		}
		est = int64(sketches[0].Estimate())
	}
	bKeyFields := bKeyCols // build tuples carry the full build schema
	return bres, rcB, bKeyFields, est, nil
}

// joinShared is the probe-phase state shared by all workers.
type joinShared struct {
	j      *Join
	ctx    *Ctx
	sp     *trace.Span
	bres   *core.Result
	rcB    *data.RowCodec
	bKeys  []int
	ht     *joinTable
	mask   uint64
	shiftP uint // partition shift (64 - log2 partitions)

	pSchema  *data.Schema
	pmSchema *data.Schema // probe materialization schema (probe ⊕ matched flag for Outer)
	rcP      *data.RowCodec
	pKeys    []int
	intKeys  bool // every key column is an 8-byte integer on both sides

	probeIn *Stream
	pshared *core.Shared

	bar        *barrier
	end        *outputEnd // last worker out releases pages stage 2 reads
	finalOnce  sync.Once
	pres       *core.Result
	routed     []int
	sched      *core.PartitionScheduler // nil when no partition spilled
	partCursor atomic.Int64
	err        errValue
}

func (j *Join) probeStream(ctx *Ctx, sp *trace.Span, bres *core.Result, rcB *data.RowCodec, bKeys []int, ht *joinTable, routedMask uint64) (*Stream, error) {
	ps, err := j.Probe.Run(ctx)
	if err != nil {
		return nil, err
	}
	pSchema := j.Probe.Schema()
	pmSchema := pSchema
	if j.Kind == Outer {
		pmSchema = pSchema.Concat(data.NewSchema(data.ColumnDef{Name: "__matched", Type: data.Bool}))
	}

	js := &joinShared{
		j:        j,
		ctx:      ctx,
		sp:       sp,
		bres:     bres,
		rcB:      rcB,
		bKeys:    bKeys,
		ht:       ht,
		mask:     routedMask,
		shiftP:   uint(64 - log2(uint64(bres.Partitions))),
		pSchema:  pSchema,
		pmSchema: pmSchema,
		rcP:      data.NewRowCodec(pmSchema.Types()),
		pKeys:    indicesOf(pSchema, j.ProbeKeys),
		intKeys:  true,
		probeIn:  ps,
		bar:      newBarrier(ctx.workers()),
	}
	// Once every worker is through stage 2, the build side's in-memory pages
	// (the grace baseline joins them there) and the probe side's are dead.
	js.end = newOutputEnd(ctx.workers(), func() {
		bres.Recycle()
		js.pres.Recycle()
	})
	for i, f := range bKeys {
		js.intKeys = js.intKeys && rcB.Types()[f].Fixed() && rcB.Types()[f] != data.Float64 &&
			pSchema.Cols[js.pKeys[i]].Type == rcB.Types()[f]
	}
	if routedMask != 0 {
		pcfg := ctx.coreConfig()
		pcfg.Mode = core.ModeAlwaysPartition
		pcfg.Partitions = bres.Partitions
		js.pshared = core.NewShared(pcfg)
	}

	workers := make([]*joinWorker, ctx.workers())
	var mu sync.Mutex
	return ctx.traceStream(&Stream{
		schema: j.schema,
		next: func(w int, b *data.Batch) (int, error) {
			mu.Lock()
			jw := workers[w]
			if jw == nil {
				jw = newJoinWorker(js, w)
				workers[w] = jw
			}
			mu.Unlock()
			return jw.next(b)
		},
		abandon: func(w int) {
			mu.Lock()
			jw := workers[w]
			mu.Unlock()
			// A worker that never reached the phase barrier will never
			// arrive: release the others.
			if jw == nil || jw.stage == 1 {
				js.bar.deregister()
			}
			js.probeIn.Abandon(w)
		},
	}, sp), nil
}

// joinWorker is one worker's probe state machine: stage 1 streams the probe
// input against the in-memory table, stage 2 (after a barrier) joins the
// routed partitions one at a time. Both stages join a batch at a time through
// the same steps (emit): stage 2 decodes its probe pages into batches first.
type joinWorker struct {
	js    *joinShared
	wid   int // this worker's stream id
	pbuf  *core.Buffer
	in    *data.Batch // stage 1: the leased probe input
	pin   *data.Batch // stage 2: probe tuples of a partition page, decoded
	arena data.ByteArena

	probe   *joinProbe
	cur     *data.Batch // the batch being joined (in or pin); nil: fetch the next
	decided bool        // cur's matches are all out and its rows routed
	keep    []int32     // rows of cur that go out without a build tuple, from kpos on
	kpos    int

	store   []int32 // rows of cur that follow their partition to stage 2 …
	storeHs []uint64
	enc     batchEncoder
	flag    []int64    // … with the matched flag, by physical row (Outer)
	wrap    data.Batch // cur ⊕ flag
	tups    [][]byte   // scratch: the tuples of a page chunk

	stage int // 1 streaming, 2 partitions, 3 done
	part  *partJoinState
}

// partJoinState is one worker's in-progress spilled partition: the build
// table (streamed in at open), the probe side's in-memory pages, and the
// probe cursor still being pulled from — probe pages of a spilled partition
// are joined as they arrive from the scheduler instead of being materialized
// first.
type partJoinState struct {
	part     int
	ht       *joinTable
	memPages []*pages.Page // probe side in-memory pages, consumed first
	idx      int
	pg       *pages.Page // probe page being joined, from tuple tup on
	tup      int
	bcur     *core.PartitionCursor // build side, exhausted; pages live until Release
	pcur     *core.PartitionCursor // probe side, streamed
}

func newJoinWorker(js *joinShared, wid int) *joinWorker {
	jw := &joinWorker{js: js, wid: wid, in: js.ctx.BatchPool(js.pSchema).Get(), stage: 1}
	jw.probe = getJoinProbe(js.pKeys, js.intKeys)
	if js.pshared != nil {
		jw.pbuf = js.pshared.NewBuffer()
	}
	return jw
}

func (jw *joinWorker) next(b *data.Batch) (int, error) {
	b.Reset()
	for {
		if err := jw.js.err.get(); err != nil {
			jw.release()
			return 0, err
		}
		if jw.cur != nil {
			if n := jw.emit(b); n > 0 {
				return n, nil
			}
			jw.cur = nil
		}
		switch jw.stage {
		case 1:
			n, err := jw.js.probeIn.Next(jw.wid, jw.in)
			if err != nil {
				jw.js.err.set(err)
				jw.release()
				return 0, err
			}
			if n == 0 {
				jw.release()
				if jw.pbuf != nil {
					if err := jw.pbuf.Finish(); err != nil {
						jw.js.err.set(err)
					}
				}
				jw.js.bar.wait()
				if err := jw.finalizeProbe(); err != nil {
					jw.js.err.set(err)
					return 0, err
				}
				jw.stage = 2
				continue
			}
			jw.begin(jw.in, jw.js.ht)
		case 2:
			if err := jw.partitionStep(); err != nil {
				jw.js.err.set(err)
				jw.release()
				return 0, err
			}
		default:
			jw.release()
			if jw.probe != nil {
				jw.probe.free()
				jw.probe = nil
				jw.js.end.reach(jw.wid)
			}
			return 0, nil
		}
	}
}

// release returns the worker's batch leases. Every terminal path out of next
// must call it — the clean end of stream and all error returns alike — or a
// failing query strands a lease and the query-end pool audit (gets == puts)
// reports a leak. Idempotent.
func (jw *joinWorker) release() {
	if jw.in != nil {
		jw.in.Release()
		jw.in = nil
	}
	if jw.pin != nil {
		jw.pin.Release()
		jw.pin = nil
	}
}

// begin starts joining the probe batch in against t (nil in the grace
// baseline's streaming stage, which only routes).
func (jw *joinWorker) begin(in *data.Batch, t *joinTable) {
	jw.cur, jw.decided = in, false
	jw.keep, jw.kpos = jw.keep[:0], 0
	jw.probe.start(t, in)
}

// emit produces the next output batch of the batch being joined into b, 0
// when it has none left. Matches come first, emitRows at a time, by column:
// probe columns gathered by match, each build field decoded in one typed
// loop. Once they are out every row's fate is known (decide); rows that go
// out without a build tuple follow — as a selection over the probe batch,
// lent to b until the next call, when the output has the probe schema.
func (jw *joinWorker) emit(b *data.Batch) int {
	js := jw.js
	in := jw.cur
	nProbe := js.pSchema.Len()
	lend := js.j.Kind == Semi || js.j.Kind == Anti
	if !jw.decided {
		if lend {
			jw.probe.exists()
		} else if n := jw.probe.fill(emitRows); n > 0 {
			gatherCols(b.Cols[:nProbe], in.Cols, jw.probe.rows)
			js.rcB.DecodeFields(b.Cols[nProbe:], jw.probe.tups, &jw.arena)
			b.SetLen(n)
			return n
		}
		jw.decide()
		jw.decided = true
	}
	rows := jw.keep[jw.kpos:]
	if len(rows) == 0 {
		return 0
	}
	if lend {
		jw.kpos = len(jw.keep)
		for i := range b.Cols {
			b.Cols[i] = in.Cols[i]
		}
		b.SetLen(in.Len())
		b.Borrow()
		if len(rows) < in.Len() {
			b.Sel = rows
		}
		return len(rows)
	}
	rows = rows[:min(len(rows), emitRows)]
	jw.kpos += len(rows)
	gatherCols(b.Cols[:nProbe], in.Cols, rows)
	nullCols(b.Cols[nProbe:], len(rows))
	b.SetLen(len(rows))
	return len(rows)
}

// decide settles every live row of the joined batch once its matches are
// known: rows of routed partitions that still need their spilled build
// tuples are stored for stage 2 (§4.3/§4.5 hybrid semantics per join kind),
// rows that go out without a build tuple are listed in keep.
func (jw *joinWorker) decide() {
	js := jw.js
	in := jw.cur
	kind := js.j.Kind
	mask := js.mask
	var before []int64 // Outer, stage 2: the row matched while it streamed
	if jw.stage == 2 {
		mask = 0
		if kind == Outer {
			before = in.Cols[js.pSchema.Len()].I
		}
	}
	if kind == Inner && mask == 0 {
		return
	}
	if kind == Outer && mask != 0 {
		jw.flag = sized(jw.flag, in.Len())
	}
	jw.store, jw.storeHs = jw.store[:0], jw.storeHs[:0]
	for i, h := range jw.probe.hashes {
		r := int32(in.Row(i))
		m := jw.probe.matched[i]
		routed := mask&(1<<(h>>js.shiftP)) != 0
		keep := false
		switch kind {
		case Semi:
			keep, routed = m, routed && !m
		case Anti:
			keep, routed = !m && !routed, routed && !m
		case Outer:
			keep = !m && !routed && (before == nil || before[r] == 0)
			if routed {
				jw.flag[r] = 0
				if m {
					jw.flag[r] = 1
				}
			}
		}
		if keep {
			jw.keep = append(jw.keep, r)
		}
		if routed {
			jw.store = append(jw.store, r)
			jw.storeHs = append(jw.storeHs, h)
		}
	}
	if len(jw.store) == 0 {
		return
	}
	src := in
	if kind == Outer {
		jw.wrap.Schema = js.pmSchema
		jw.wrap.Cols = append(append(jw.wrap.Cols[:0], in.Cols...), data.Column{Type: data.Bool, I: jw.flag})
		jw.wrap.SetLen(in.Len())
		src = &jw.wrap
	}
	jw.enc.encode(jw.pbuf, js.rcP, src, jw.store, jw.storeHs)
}

// finalizeProbe merges the probe-side materialization once all workers have
// finished stage 1.
func (jw *joinWorker) finalizeProbe() error {
	js := jw.js
	var ferr error
	js.finalOnce.Do(func() {
		if js.pshared != nil {
			pres, err := js.ctx.finalize(js.sp, js.pshared)
			if err != nil {
				ferr = err
				return
			}
			js.pres = pres
		}
		for p := 0; p < js.bres.Partitions; p++ {
			if js.mask&(1<<uint(p)) != 0 {
				js.routed = append(js.routed, p)
			}
		}
		// Schedule readback for every routed partition, build side then
		// probe side, in claim order — the order workers will consume them
		// in partitionStep, so prefetch lookahead tracks actual progress.
		anySpilled := false
		items := make([]core.PartitionWork, 0, 2*len(js.routed))
		if !js.ctx.ForceGrace {
			// Every worker is through stage 1: nothing probes the in-memory
			// table any more, so it and the build pages it indexes are dead.
			js.ht.release()
			js.bres.Recycle()
		}
		for _, p := range js.routed {
			bslots := js.bres.Spilled[p]
			var pslots []core.SpilledSlot
			if js.pres != nil {
				pslots = js.pres.Spilled[p]
			}
			anySpilled = anySpilled || len(bslots) > 0 || len(pslots) > 0
			items = append(items,
				core.PartitionWork{Part: p, Slots: bslots},
				core.PartitionWork{Part: p, Slots: pslots})
		}
		if anySpilled {
			// One scheduler serves both sides, so its stripe directory is
			// the union of the build and probe results' parity stripes.
			stripes := js.bres.Stripes
			if js.pres != nil && len(js.pres.Stripes) > 0 {
				stripes = append(append([]*core.StripeGroup(nil), stripes...), js.pres.Stripes...)
			}
			js.sched = js.ctx.newPartitionScheduler(items, stripes, core.DefaultReadDepth)
		}
	})
	return ferr
}

// partitionStep begins the join of the next chunk of probe tuples of a
// routed partition, or ends stage 2. Probe pages are pulled one at a time —
// from the in-memory partition first, then from the readback cursor — so the
// worker joins page k while the scheduler's ring is already reading page k+1
// (and the next partitions).
func (jw *joinWorker) partitionStep() error {
	js := jw.js
	for {
		if jw.part == nil {
			i := int(js.partCursor.Add(1) - 1)
			if i >= len(js.routed) {
				jw.stage = 3
				return nil
			}
			st, err := jw.openPartition(i, js.routed[i])
			if err != nil {
				return err
			}
			jw.part = st
		}
		st := jw.part
		if st.pg != nil && st.tup < st.pg.Tuples() {
			// Decode the page's next tuples into a probe batch. Strings are
			// interned: what the join emits or lends owns its bytes.
			hi := min(st.tup+emitRows, st.pg.Tuples())
			jw.tups = jw.tups[:0]
			for t := st.tup; t < hi; t++ {
				jw.tups = append(jw.tups, st.pg.Tuple(t))
			}
			st.tup = hi
			if jw.pin == nil {
				jw.pin = js.ctx.BatchPool(js.pmSchema).Get()
			}
			js.rcP.DecodeFields(jw.pin.Cols, jw.tups, &jw.arena)
			jw.pin.SetLen(len(jw.tups))
			jw.begin(jw.pin, st.ht)
			return nil
		}
		st.pg, st.tup = nil, 0
		if st.idx < len(st.memPages) {
			st.pg = st.memPages[st.idx]
			st.idx++
		} else if st.pcur != nil {
			next, err := st.pcur.Next()
			if err != nil {
				js.ctx.reportCursor(js.sp, st.pcur)
				return fmt.Errorf("exec: join reading probe partition %d: %w", st.part, err)
			}
			st.pg = next
		}
		if st.pg == nil {
			// Partition fully joined: nothing references its pages anymore
			// (outputs are arena-interned), so its table's arrays and the
			// cursors' buffers can be recycled.
			jw.part = nil
			st.ht.release()
			if st.pcur != nil {
				js.ctx.reportCursor(js.sp, st.pcur)
				st.pcur.Release()
			}
			if st.bcur != nil {
				st.bcur.Release()
			}
		}
	}
}

// openPartition reads the build side of routed partition i (partition p)
// into a table of its own and opens the probe-side cursor for partitionStep
// to pull from.
func (jw *joinWorker) openPartition(i, p int) (*partJoinState, error) {
	js := jw.js
	st := &partJoinState{part: p}

	// Build side: spilled pages always; in-memory partition pages only for
	// the grace baseline (the unified join already covered them in the
	// global in-memory table).
	var build []*pages.Page
	if js.ctx.ForceGrace {
		build = append(build, js.bres.InMemoryByPart(p)...)
	}
	if js.sched != nil {
		bcur := js.sched.Open(2 * i)
		for {
			pg, err := bcur.Next()
			if err != nil {
				js.ctx.reportCursor(js.sp, bcur)
				return nil, fmt.Errorf("exec: join reading build partition %d: %w", p, err)
			}
			if pg == nil {
				break
			}
			build = append(build, pg)
		}
		js.ctx.reportCursor(js.sp, bcur)
		st.bcur = bcur
		st.pcur = js.sched.Open(2*i + 1)
	}
	// The partition's hashes share their leading bits; its table is sized
	// from its tuple count, known only now and only for partitions that were
	// routed — a join that did not spill estimates nothing per partition.
	ht, err := buildJoinTable(build, js.rcB, js.bKeys, 64-js.shiftP, 0, 1)
	if err != nil {
		return nil, err
	}
	st.ht = ht
	if js.pres != nil {
		st.memPages = js.pres.InMemoryByPart(p)
	}
	return st, nil
}

// gatherCols fills dst with the given rows of src, column by column.
func gatherCols(dst, src []data.Column, rows []int32) {
	n := len(rows)
	for i := range dst {
		d, s := &dst[i], &src[i]
		switch d.Type {
		case data.Float64:
			d.F = sized(d.F, n)
			for j, r := range rows {
				d.F[j] = s.F[r]
			}
		case data.String:
			d.S = sized(d.S, n)
			for j, r := range rows {
				d.S[j] = s.S[r]
			}
		default:
			d.I = sized(d.I, n)
			for j, r := range rows {
				d.I[j] = s.I[r]
			}
		}
		d.Null = nil
		if s.Null != nil {
			d.Null = make([]bool, n)
			for j, r := range rows {
				d.Null[j] = s.Null[r]
			}
		}
	}
}

// nullCols fills cols with n NULLs (the build side of an unmatched outer row).
func nullCols(cols []data.Column, n int) {
	for i := range cols {
		c := &cols[i]
		switch c.Type {
		case data.Float64:
			c.F = sized(c.F, n)
			clear(c.F)
		case data.String:
			c.S = sized(c.S, n)
			clear(c.S)
		default:
			c.I = sized(c.I, n)
			clear(c.I)
		}
		c.Null = make([]bool, n)
		for j := range c.Null {
			c.Null[j] = true
		}
	}
}

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
// With Grace set, the operator instead behaves as the classical grace hash
// join baseline (§4.1): both sides always partition and every partition is
// joined separately — no streaming probe phase.
type Join struct {
	Build, Probe         Node
	BuildKeys, ProbeKeys []string
	Kind                 JoinKind
	Grace                bool

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

// grace reports whether this join runs as a grace hash join, either by its
// own flag or by the context-wide baseline switch.
func (j *Join) grace(ctx *Ctx) bool { return j.Grace || ctx.ForceGrace }

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
	var ht *hashTable
	routedMask := bres.Mask
	if j.grace(ctx) {
		routedMask = ^uint64(0) >> (64 - uint(bres.Partitions))
	} else {
		memPages := make([]*pages.Page, 0, len(bres.Unpartitioned)+len(bres.InMemory))
		memPages = append(memPages, bres.Unpartitioned...)
		memPages = append(memPages, bres.InMemory...)
		ht, err = buildHashTable(memPages, rcB, bKeyFields, est, workers)
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
	if j.grace(ctx) {
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
	if j.grace(ctx) {
		cfg.Mode = core.ModeAlwaysPartition
	}
	shared := core.NewShared(cfg)
	workers := ctx.workers()
	parts := cfg.Partitions
	shiftP := uint(64 - log2(uint64(parts)))
	// Per-worker, per-partition HyperLogLog sketches: partition routing
	// consumes the hash prefix, so slicing the sketches the same way yields
	// a statistically valid distinct estimate per partition — the hint
	// phase 2 sizes each partition's hash table from (§4.4).
	sketches := make([][]*hll.Sketch, workers)
	err = drainWorkers(ctx, "join-build", bs, func(w int) (func(*data.Batch) error, func() error) {
		buf := shared.NewBuffer()
		skp := make([]*hll.Sketch, parts)
		sketches[w] = skp
		// The HyperLogLog sketch computes a key hash anyway; Umami reuses it
		// for adaptive partitioning (§4.5).
		sketch := func(i int, h uint64) {
			p := int(h >> shiftP)
			sk := skp[p]
			if sk == nil {
				sk = hll.New()
				skp[p] = sk
			}
			sk.Add(h)
		}
		var be batchEncoder
		return func(b *data.Batch) error {
			// Batch materialization: hashing, sizing, and encoding all run
			// column-at-a-time.
			be.materialize(buf, rcB, b, bKeyCols, sketch)
			return nil
		}, buf.Finish
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	bres, err := ctx.finalize(sp, shared)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	// Merge the sketch grid: per-partition estimates feed phase-2 table
	// sizing; their union (register-wise max is associative) sizes the
	// global in-memory table exactly as the single sketch used to.
	partDistinct := make([]int64, parts)
	merged := hll.New()
	acc := hll.New()
	for p := 0; p < parts; p++ {
		acc.Reset()
		any := false
		for w := range sketches {
			if sk := sketches[w][p]; sk != nil {
				acc.Merge(sk)
				any = true
			}
		}
		if any {
			partDistinct[p] = int64(acc.Estimate())
			merged.Merge(acc)
		}
	}
	bres.PartDistinct = partDistinct
	bKeyFields := bKeyCols // build tuples carry the full build schema
	return bres, rcB, bKeyFields, int64(merged.Estimate()), nil
}

// joinShared is the probe-phase state shared by all workers.
type joinShared struct {
	j      *Join
	ctx    *Ctx
	sp     *trace.Span
	bres   *core.Result
	rcB    *data.RowCodec
	bKeys  []int
	ht     *hashTable
	mask   uint64
	shiftP uint // partition shift (64 - log2 partitions)
	nBuild int  // build schema width

	pSchema  *data.Schema
	pmSchema *data.Schema // probe materialization schema (probe ⊕ matched flag for Outer)
	rcP      *data.RowCodec
	pKeys    []int

	probeIn *Stream
	pshared *core.Shared

	bar        *barrier
	finalOnce  sync.Once
	pres       *core.Result
	routed     []int
	sched      *core.PartitionScheduler // nil when no partition spilled
	partCursor atomic.Int64
	err        errValue
}

func (j *Join) probeStream(ctx *Ctx, sp *trace.Span, bres *core.Result, rcB *data.RowCodec, bKeys []int, ht *hashTable, routedMask uint64) (*Stream, error) {
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
		nBuild:   j.Build.Schema().Len(),
		pSchema:  pSchema,
		pmSchema: pmSchema,
		rcP:      data.NewRowCodec(pmSchema.Types()),
		pKeys:    indicesOf(pSchema, j.ProbeKeys),
		probeIn:  ps,
		bar:      newBarrier(ctx.workers()),
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
// routed partitions one at a time.
type joinWorker struct {
	js       *joinShared
	wid      int // this worker's stream id
	pbuf     *core.Buffer
	in       *data.Batch
	flag     []int64       // scratch matched-flag column (Outer)
	hashes   []uint64      // per-batch probe-key hashes
	wrapCols []data.Column // scratch columns for the Outer wrap batch
	arena    data.ByteArena

	stage int // 1 streaming, 2 partitions, 3 done
	cur   *partJoinState
}

// partJoinState is one worker's in-progress spilled partition: the build
// table (streamed in at open), the probe side's in-memory pages, and the
// probe cursor still being pulled from — probe pages of a spilled partition
// are joined as they arrive from the scheduler instead of being materialized
// first.
type partJoinState struct {
	part     int
	ht       *hashTable
	memPages []*pages.Page // probe side in-memory pages, consumed first
	idx      int
	bcur     *core.PartitionCursor // build side, exhausted; pages live until Release
	pcur     *core.PartitionCursor // probe side, streamed
}

func newJoinWorker(js *joinShared, wid int) *joinWorker {
	jw := &joinWorker{js: js, wid: wid, in: js.ctx.BatchPool(js.pSchema).Get(), stage: 1}
	if js.pshared != nil {
		jw.pbuf = js.pshared.NewBuffer()
	}
	return jw
}

func (jw *joinWorker) next(b *data.Batch) (int, error) {
	b.Reset()
	for {
		if err := jw.js.err.get(); err != nil {
			jw.releaseIn()
			return 0, err
		}
		switch jw.stage {
		case 1:
			n, err := jw.js.probeIn.Next(jw.workerID(), jw.in)
			if err != nil {
				jw.js.err.set(err)
				jw.releaseIn()
				return 0, err
			}
			if n == 0 {
				jw.releaseIn()
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
			if out := jw.streamBatch(b); out > 0 {
				return out, nil
			}
		case 2:
			n, err := jw.partitionStep(b)
			if err != nil {
				jw.js.err.set(err)
				return 0, err
			}
			if n > 0 {
				return n, nil
			}
			if jw.stage == 3 {
				return 0, nil
			}
		default:
			return 0, nil
		}
	}
}

// releaseIn returns the worker's probe-input batch lease. Every terminal
// path out of next must call it — the clean end of stream and all error
// returns alike — or a failing query strands the lease and the query-end
// pool audit (gets == puts) reports a leak. Idempotent.
func (jw *joinWorker) releaseIn() {
	if jw.in != nil {
		jw.in.Release()
		jw.in = nil
	}
}

// workerID returns this worker's probe-stream id, bound at creation.
func (jw *joinWorker) workerID() int { return jw.wid }

// streamBatch probes jw.in against the in-memory table, emitting into b and
// routing tuples of spilled (or grace) partitions into the probe buffer.
func (jw *joinWorker) streamBatch(b *data.Batch) int {
	js := jw.js
	in := jw.in
	var wrap *data.Batch
	if js.j.Kind == Outer {
		if cap(jw.flag) < in.Len() {
			jw.flag = make([]int64, in.Len())
		}
		jw.flag = jw.flag[:in.Len()]
		jw.wrapCols = append(jw.wrapCols[:0], in.Cols...)
		jw.wrapCols = append(jw.wrapCols, data.Column{Type: data.Bool, I: jw.flag})
		wrap = &data.Batch{Schema: js.pmSchema, Cols: jw.wrapCols}
		wrap.SetLen(in.Len())
	}
	// Key hashes for the whole batch, column-at-a-time; the per-row loop
	// below then only routes and emits.
	jw.hashes = data.HashColumns(in, in.Sel, js.pKeys, jw.hashes[:0])
	n := in.Rows()
	for i := 0; i < n; i++ {
		r := in.Row(i)
		h := jw.hashes[i]
		part := int(h >> js.shiftP)
		routed := js.mask&(1<<uint(part)) != 0

		matched := false
		if js.ht != nil {
			switch js.j.Kind {
			case Inner, Outer:
				js.ht.probeRow(h, in, js.pKeys, r, func(bt []byte) {
					matched = true
					emitJoined(b, in, r, js.rcB, bt, js.nBuild, &jw.arena)
				})
			case Semi, Anti:
				matched = js.ht.probeRow(h, in, js.pKeys, r, nil)
			}
		}

		if !routed {
			switch js.j.Kind {
			case Semi:
				if matched {
					b.AppendRowFrom(in, r)
				}
			case Anti:
				if !matched {
					b.AppendRowFrom(in, r)
				}
			case Outer:
				if !matched {
					emitPadded(b, in, r, js.j.Build.Schema())
				}
			}
			continue
		}

		// Routed partition: decide whether the tuple continues to the
		// spilled phase (see §4.3/§4.5 hybrid semantics per join kind).
		switch js.j.Kind {
		case Inner:
			jw.store(in, r, h)
		case Semi:
			if matched {
				b.AppendRowFrom(in, r)
			} else {
				jw.store(in, r, h)
			}
		case Anti:
			if !matched {
				jw.store(in, r, h)
			}
		case Outer:
			jw.flag[r] = 0
			if matched {
				jw.flag[r] = 1
			}
			jw.storeWrap(wrap, r, h)
		}
	}
	return b.Len()
}

func (jw *joinWorker) store(in *data.Batch, r int, h uint64) {
	dst := jw.pbuf.AllocTuple(jw.js.rcP.Size(in, r), h)
	jw.js.rcP.Encode(dst, in, r)
}

func (jw *joinWorker) storeWrap(wrap *data.Batch, r int, h uint64) {
	dst := jw.pbuf.AllocTuple(jw.js.rcP.Size(wrap, r), h)
	jw.js.rcP.Encode(dst, wrap, r)
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
			js.sched = js.ctx.newPartitionScheduler(items, stripes)
		}
	})
	return ferr
}

// partitionStep processes (part of) one routed partition, emitting into b.
// Probe pages are pulled one at a time — from the in-memory partition first,
// then from the readback cursor — so the worker joins page k while the
// scheduler's ring is already reading page k+1 (and the next partitions).
func (jw *joinWorker) partitionStep(b *data.Batch) (int, error) {
	js := jw.js
	for {
		if jw.cur == nil {
			i := int(js.partCursor.Add(1) - 1)
			if i >= len(js.routed) {
				jw.stage = 3
				return 0, nil
			}
			st, err := jw.openPartition(i, js.routed[i])
			if err != nil {
				return 0, err
			}
			jw.cur = st
		}
		st := jw.cur
		var pg *pages.Page
		if st.idx < len(st.memPages) {
			pg = st.memPages[st.idx]
			st.idx++
		} else if st.pcur != nil {
			next, err := st.pcur.Next()
			if err != nil {
				js.ctx.reportCursor(js.sp, st.pcur)
				return 0, fmt.Errorf("exec: join reading probe partition %d: %w", st.part, err)
			}
			pg = next
		}
		if pg == nil {
			// Partition fully joined: nothing references its pages anymore
			// (outputs are arena-interned, the hash table dies with st), so
			// the cursors' buffers can be recycled.
			jw.cur = nil
			st.ht = nil
			if st.pcur != nil {
				js.ctx.reportCursor(js.sp, st.pcur)
				st.pcur.Release()
			}
			if st.bcur != nil {
				st.bcur.Release()
			}
			continue
		}
		jw.emitProbePage(b, st, pg)
		if b.Len() > 0 {
			return b.Len(), nil
		}
	}
}

// openPartition streams the build side of routed partition i (partition p)
// into a hash table sized from its HLL distinct estimate, and opens the
// probe-side cursor for partitionStep to pull from.
func (jw *joinWorker) openPartition(i, p int) (*partJoinState, error) {
	js := jw.js
	st := &partJoinState{part: p}

	var hint int64
	if p < len(js.bres.PartDistinct) {
		hint = js.bres.PartDistinct[p]
	}
	st.ht = newStreamingHashTable(js.rcB, js.bKeys, hint)
	// Build side: spilled pages always; in-memory partition pages only for
	// the grace baseline (the unified join already covered them in the
	// global in-memory table).
	if js.j.grace(js.ctx) {
		for _, pg := range js.bres.InMemoryByPart(p) {
			st.ht.insertPage(pg)
		}
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
			st.ht.insertPage(pg)
		}
		js.ctx.reportCursor(js.sp, bcur)
		st.bcur = bcur
		st.pcur = js.sched.Open(2*i + 1)
	}
	if js.pres != nil {
		st.memPages = js.pres.InMemoryByPart(p)
	}
	return st, nil
}

// emitProbePage probes every tuple of one materialized probe page.
func (jw *joinWorker) emitProbePage(b *data.Batch, st *partJoinState, pg *pages.Page) {
	js := jw.js
	arena := &jw.arena
	nProbe := js.pSchema.Len()
	for t := 0; t < pg.Tuples(); t++ {
		tuple := pg.Tuple(t)
		h := js.rcP.HashTuple(tuple, js.pKeys)
		switch js.j.Kind {
		case Inner:
			st.ht.probeTuple(h, tuple, js.rcP, js.pKeys, func(bt []byte) {
				appendTupleCols(b, 0, js.rcP, tuple, nProbe, arena)
				appendTupleCols(b, nProbe, js.rcB, bt, js.nBuild, arena)
				b.SetLen(b.Len() + 1)
			})
		case Semi:
			if st.ht.probeTuple(h, tuple, js.rcP, js.pKeys, nil) {
				appendTupleCols(b, 0, js.rcP, tuple, nProbe, arena)
				b.SetLen(b.Len() + 1)
			}
		case Anti:
			if !st.ht.probeTuple(h, tuple, js.rcP, js.pKeys, nil) {
				appendTupleCols(b, 0, js.rcP, tuple, nProbe, arena)
				b.SetLen(b.Len() + 1)
			}
		case Outer:
			matched := st.ht.probeTuple(h, tuple, js.rcP, js.pKeys, func(bt []byte) {
				appendTupleCols(b, 0, js.rcP, tuple, nProbe, arena)
				appendTupleCols(b, nProbe, js.rcB, bt, js.nBuild, arena)
				b.SetLen(b.Len() + 1)
			})
			flagField := nProbe // the appended __matched field
			if !matched && js.rcP.Int(tuple, flagField) == 0 {
				appendTupleCols(b, 0, js.rcP, tuple, nProbe, arena)
				appendNullCols(b, nProbe, js.j.Build.Schema())
				b.SetLen(b.Len() + 1)
			}
		}
	}
}

// emitJoined appends probe row r of in ⊕ decoded build tuple to out.
func emitJoined(out *data.Batch, in *data.Batch, r int, rcB *data.RowCodec, buildTuple []byte, nBuild int, arena *data.ByteArena) {
	appendBatchRowCols(out, 0, in, r)
	appendTupleCols(out, in.Schema.Len(), rcB, buildTuple, nBuild, arena)
	out.SetLen(out.Len() + 1)
}

// emitPadded appends probe row r with NULL build columns (outer join).
func emitPadded(out *data.Batch, in *data.Batch, r int, buildSchema *data.Schema) {
	appendBatchRowCols(out, 0, in, r)
	appendNullCols(out, in.Schema.Len(), buildSchema)
	out.SetLen(out.Len() + 1)
}

// appendBatchRowCols copies row r of in into out columns [start, start+w).
func appendBatchRowCols(out *data.Batch, start int, in *data.Batch, r int) {
	for i := range in.Cols {
		src := &in.Cols[i]
		dst := &out.Cols[start+i]
		switch dst.Type {
		case data.Float64:
			dst.F = append(dst.F, src.F[r])
		case data.String:
			dst.S = append(dst.S, src.S[r])
		default:
			dst.I = append(dst.I, src.I[r])
		}
		appendNullMark(dst, out.Len(), src.Null != nil && src.Null[r])
	}
}

// appendTupleCols decodes the first n fields of tuple into out columns
// [start, start+n). String fields are interned through arena (when
// non-nil), so the output owns its bytes and the tuple's page can be
// recycled once the batch is emitted.
func appendTupleCols(out *data.Batch, start int, rc *data.RowCodec, tuple []byte, n int, arena *data.ByteArena) {
	for f := 0; f < n; f++ {
		dst := &out.Cols[start+f]
		switch rc.Types()[f] {
		case data.Float64:
			dst.F = append(dst.F, rc.Float(tuple, f))
		case data.String:
			if arena != nil {
				dst.S = append(dst.S, arena.InternBytes(rc.StrBytes(tuple, f)))
			} else {
				dst.S = append(dst.S, rc.Str(tuple, f))
			}
		default:
			dst.I = append(dst.I, rc.Int(tuple, f))
		}
		appendNullMark(dst, out.Len(), rc.IsNull(tuple, f))
	}
}

// appendNullCols appends NULL values for every column of schema into out
// columns [start, start+len).
func appendNullCols(out *data.Batch, start int, schema *data.Schema) {
	for i, cd := range schema.Cols {
		dst := &out.Cols[start+i]
		switch cd.Type {
		case data.Float64:
			dst.F = append(dst.F, 0)
		case data.String:
			dst.S = append(dst.S, "")
		default:
			dst.I = append(dst.I, 0)
		}
		appendNullMark(dst, out.Len(), true)
	}
}

// appendNullMark maintains a column's null bitmap while appending row
// rowIdx (the batch length before the row is complete).
func appendNullMark(c *data.Column, rowIdx int, null bool) {
	if c.Null == nil {
		if !null {
			return
		}
		c.Null = make([]bool, rowIdx)
	}
	for len(c.Null) < rowIdx {
		c.Null = append(c.Null, false)
	}
	c.Null = append(c.Null, null)
}

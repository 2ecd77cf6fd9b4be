package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/pages"
	"github.com/spilly-db/spilly/internal/uring"
)

// regPage is a mildly compressible 8 KiB page (small random alphabet):
// compression shrinks it somewhat at every scale level, but never enough to
// erase a strong I/O bottleneck — so escalation pressure persists.
var regPage = func() []byte {
	p := make([]byte, 8192)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range p {
		state = state*6364136223846793005 + 1442695040888963407
		p[i] = byte(state>>59) & 31
	}
	return p
}()

// feedRun pushes one full measurement run with the given synthetic costs.
func feedRun(r *Regulator, opNsPerByte, ioNsPerByte float64) {
	page := regPage
	for i := 0; i < r.runN; i++ {
		r.ObserveOperator(time.Duration(opNsPerByte*float64(len(page))), len(page))
		out, _ := r.CompressBlock(page, 1)
		r.ObserveIO(uring.Completion{
			N:       len(out),
			Latency: time.Duration(ioNsPerByte * float64(len(out))),
		}, 1)
	}
}

func TestRegulatorStartsUncompressed(t *testing.T) {
	r := NewRegulator(4)
	if r.Scheme() != codec.None {
		t.Fatalf("initial scheme = %v, want None", r.Scheme())
	}
}

func TestRegulatorStepsUpWhenIOBound(t *testing.T) {
	r := NewRegulator(4)
	// I/O is vastly more expensive than CPU: compression should escalate.
	for i := 0; i < 20; i++ {
		feedRun(r, 0.01, 50.0)
	}
	if r.Level() < 3 {
		t.Fatalf("I/O-bound workload only reached level %d (scheme %d)", r.Level(), r.Scheme())
	}
}

func TestRegulatorStaysOffWhenCPUBound(t *testing.T) {
	r := NewRegulator(4)
	// CPU dominates: the regulator must stay uncompressed.
	for i := 0; i < 20; i++ {
		feedRun(r, 5.0, 0.01)
	}
	if r.Level() != 0 {
		t.Fatalf("CPU-bound workload escalated to level %d", r.Level())
	}
}

func TestRegulatorComesBackDown(t *testing.T) {
	r := NewRegulator(4)
	for i := 0; i < 20; i++ {
		feedRun(r, 0.01, 50.0)
	}
	up := r.Level()
	if up == 0 {
		t.Fatal("setup failed: regulator never went up")
	}
	// The I/O bottleneck disappears (e.g. more SSDs): back toward raw.
	for i := 0; i < 40; i++ {
		feedRun(r, 0.05, 0.001)
	}
	if r.Level() != 0 {
		t.Fatalf("regulator stuck at level %d after I/O became cheap", r.Level())
	}
}

func TestRegulatorEquilibriumStable(t *testing.T) {
	// Long runs average out wall-clock measurement noise on the real
	// compression timings.
	r := NewRegulator(16)
	for i := 0; i < 10; i++ {
		feedRun(r, 0.5, 1.0)
	}
	// Under steady conditions the regulator settles at the equilibrium
	// point. Dithering between adjacent levels IS the equilibrium
	// (effective I/O and CPU bandwidth alternate dominance); what must
	// not happen is wandering across the scale.
	minL, maxL := r.Level(), r.Level()
	for i := 0; i < 30; i++ {
		feedRun(r, 0.5, 1.0)
		if l := r.Level(); l < minL {
			minL = l
		} else if l > maxL {
			maxL = l
		}
	}
	if maxL-minL > 2 {
		t.Fatalf("regulator wandered across levels %d..%d under steady conditions", minL, maxL)
	}
}

func TestRegulatorHoldsWithoutIO(t *testing.T) {
	r := NewRegulator(4)
	for i := 0; i < 20; i++ {
		feedRun(r, 0.01, 50.0)
	}
	if r.Level() == 0 {
		t.Fatal("setup failed: regulator never went up")
	}
	page := bytes.Repeat([]byte{1, 2, 3, 4}, 2048)
	// Flush the measurement run that still carries I/O observations from
	// the setup phase.
	for i := 0; i < r.runN; i++ {
		r.CompressBlock(page, 1)
	}
	level := r.Level()
	// Pages flow but no I/O completions are observed (bursty spilling with
	// writes still in flight): the regulator must hold its setting rather
	// than drift — moving blind would fight the burst pattern.
	for i := 0; i < 20*r.runN; i++ {
		r.CompressBlock(page, 1)
	}
	if r.Level() != level {
		t.Fatalf("level moved from %d to %d without any observed I/O", level, r.Level())
	}
}

func TestRegulatorRoundTripsAllSchemes(t *testing.T) {
	r := NewRegulator(1)
	page := bytes.Repeat([]byte("spill data spill data "), 100)
	for li := range DefaultScale {
		r.level = li
		out, level := r.CompressBlock(page, 1)
		if level != li {
			t.Fatalf("level %d encoded at level %d", li, level)
		}
		id := DefaultScale[li]
		if id == codec.None {
			if !bytes.Equal(out, page) {
				t.Fatal("None scheme modified data")
			}
			continue
		}
		dec, err := codec.ByID(id).Decompress(nil, out)
		if err != nil || !bytes.Equal(dec, page) {
			t.Fatalf("scheme %v round trip failed: %v", id, err)
		}
	}
}

// TestRegulatorCountsBlockPages: one call compresses a staging block of 16
// pages, and the run advances by 16 pages, not by one call — so the run
// length keeps counting pages.
func TestRegulatorCountsBlockPages(t *testing.T) {
	r := NewRegulator(64)
	block := bytes.Repeat(regPage, 16)
	r.CompressBlock(block, 16)
	if r.pagesInRun != 16 {
		t.Fatalf("run advanced by %d pages, want 16", r.pagesInRun)
	}
	for i := 0; i < 3; i++ {
		r.CompressBlock(block, 16)
	}
	if r.pagesInRun != 0 {
		t.Fatalf("64 pages in four blocks left %d pages in the run; want it closed at runN", r.pagesInRun)
	}
}

func TestRegulatorIgnoresFailedIO(t *testing.T) {
	r := NewRegulator(2)
	r.ObserveIO(uring.Completion{Err: codec.ErrCorrupt, N: 100, Latency: time.Hour}, 1)
	if r.ioBytes != 0 {
		t.Fatal("failed completion counted toward I/O cost")
	}
}

// TestMergeHistograms: two worker buffers of one operator spill at different
// schemes (one pinned raw, one pinned at LZ4); the result's scheme rows hold
// each buffer's pages at its own level and add up to the slots spilled.
func TestMergeHistograms(t *testing.T) {
	arr := fastArray(2)
	s := NewShared(Config{
		PageSize: 4096, Partitions: 4, Budget: pages.NewBudget(64 << 10), Mode: ModeSpillAll,
		Spill: &SpillConfig{Array: arr, Compress: true},
	})
	raw, lz4 := s.NewBuffer(), s.NewBuffer()
	raw.reg.PinScheme(codec.None)
	lz4.reg.PinScheme(codec.LZ4Default)
	storeN(raw, 5000, 32, 0)
	storeN(lz4, 5000, 32, 5000)
	var slotsAt [2]int64
	for i, b := range []*Buffer{raw, lz4} {
		if err := b.Finish(); err != nil {
			t.Fatal(err)
		}
		for _, slots := range b.writer.slots {
			slotsAt[i] += int64(len(slots))
		}
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	rawRow := metrics.SpilledPages + metrics.Counter(slices.Index(DefaultScale, codec.None))
	lz4Row := metrics.SpilledPages + metrics.Counter(slices.Index(DefaultScale, codec.LZ4Default))
	if slotsAt[0] == 0 || slotsAt[1] == 0 {
		t.Fatalf("setup failed: buffers spilled %v pages", slotsAt)
	}
	if res.Counters[rawRow] != slotsAt[0] || res.Counters[lz4Row] != slotsAt[1] {
		t.Fatalf("raw row %d, lz4 row %d; buffers spilled %d raw and %d lz4 pages",
			res.Counters[rawRow], res.Counters[lz4Row], slotsAt[0], slotsAt[1])
	}
	if n := schemePages(res); n != slotsAt[0]+slotsAt[1] {
		t.Fatalf("scheme rows count %d pages, %d were spilled", n, slotsAt[0]+slotsAt[1])
	}
	checkAllKeys(t, collectKeys(t, arr, res), 10000, 0)
}

func TestDefaultScaleRatioTrend(t *testing.T) {
	// "More compression" along the scale must be broadly true for the
	// equilibrium search to be meaningful. Exact monotonicity is data
	// dependent (e.g. LZ4's match encoding can beat deflate-1 on highly
	// repetitive pages), so allow small per-step regressions but require
	// the overall trend: each step shrinks or regresses < 15%, and the
	// deepest setting clearly beats the shallowest.
	page := regPage
	sizes := make([]int, len(DefaultScale))
	for i, id := range DefaultScale {
		sizes[i] = len(page)
		if id != codec.None {
			sizes[i] = len(codec.ByID(id).Compress(nil, page))
		}
	}
	for i := 1; i < len(sizes); i++ {
		if float64(sizes[i]) > 1.15*float64(sizes[i-1]) {
			t.Fatalf("scale step %d (%v): %d is >15%% worse than %d", i, DefaultScale[i], sizes[i], sizes[i-1])
		}
	}
	if float64(sizes[len(sizes)-1]) > 0.8*float64(sizes[1]) {
		t.Fatalf("deepest setting (%d bytes) not clearly better than shallowest (%d bytes)", sizes[len(sizes)-1], sizes[1])
	}
}

// seededShared returns a compressing operator whose buffers carry seed (nil:
// every regulator starts cold).
func seededShared(seed *RegulatorSeed) *Shared {
	return NewShared(Config{
		PageSize: 4096, Partitions: 4,
		Spill: &SpillConfig{Array: fastArray(1), Compress: true, Seed: seed},
	})
}

// spillOneBlock writes one run of about 50 KiB through b — less than a
// staging block, so it leaves as exactly one compressed block — finishes b
// and returns the scheme the block was written with.
func spillOneBlock(t *testing.T, s *Shared, b *Buffer) codec.ID {
	t.Helper()
	if err := b.SpillRun(500, func(i int) []byte { return tup(uint64(i), 100) }); err != nil {
		t.Fatal(err)
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	runs := res.Spilled[res.Partitions:]
	if len(runs) != 1 || len(runs[0]) == 0 {
		t.Fatalf("spilled %d runs; want one", len(runs))
	}
	first := runs[0][0]
	for _, sl := range runs[0] {
		if sl.Seq != first.Seq {
			t.Fatalf("the run spans blocks %d and %d; want one block", first.Seq, sl.Seq)
		}
	}
	return first.Scheme
}

// TestRegulatorSeedWarmStartsNextBuffer: a buffer whose regulator an
// I/O-bound run drove up the scale leaves its level in the seed, and the
// next buffer on that seed compresses its very first block at that level,
// before any write of its own has completed.
func TestRegulatorSeedWarmStartsNextBuffer(t *testing.T) {
	var seed RegulatorSeed
	s1 := seededShared(&seed)
	b1 := s1.NewBuffer()
	for i := 0; i < 20; i++ {
		feedRun(b1.Regulator(), 0.01, 50.0)
	}
	level := b1.Regulator().Level()
	if level < 3 {
		t.Fatalf("setup failed: I/O-bound runs only reached level %d", level)
	}
	// Drop the completion feedRun's last page carried into the open run:
	// the block then closes a run with no completion in it, so the level
	// holds through it.
	b1.Regulator().resetRun()
	if got := spillOneBlock(t, s1, b1); got != DefaultScale[level] {
		t.Fatalf("first buffer wrote its block as %v, want %v", got, DefaultScale[level])
	}
	if seed.Level() != level {
		t.Fatalf("seed holds level %d after the first buffer finished at %d", seed.Level(), level)
	}

	s2 := seededShared(&seed)
	b2 := s2.NewBuffer()
	if b2.Regulator().Level() != level {
		t.Fatalf("next buffer starts at level %d, want the seed's %d", b2.Regulator().Level(), level)
	}
	if got := spillOneBlock(t, s2, b2); got != DefaultScale[level] {
		t.Fatalf("next buffer wrote its first block as %v, want %v", got, DefaultScale[level])
	}
}

// TestRegulatorSeedKeptByBufferThatNeverSpilled: a buffer that never spilled
// never measured a run, so it must not overwrite the seed with the level it
// started from, nor with anything else.
func TestRegulatorSeedKeptByBufferThatNeverSpilled(t *testing.T) {
	var seed RegulatorSeed
	seed.level.Store(5)
	s := seededShared(&seed)
	b := s.NewBuffer()
	// The regulator moves without I/O measurements: they are the only
	// thing that may make it write back.
	b.Regulator().level = 2
	storeN(b, 1000, 32, 0)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if res, _ := s.Finalize(); schemePages(res) != 0 {
		t.Fatalf("setup failed: an unbudgeted buffer spilled %d pages", schemePages(res))
	}
	if seed.Level() != 5 {
		t.Fatalf("a buffer that never spilled moved the seed from 5 to %d", seed.Level())
	}
}

// TestRegulatorNilSeedStartsRaw: without a seed a buffer's regulator starts
// raw however far an earlier buffer climbed, and finishing with a measured
// regulator has nothing to write back to.
func TestRegulatorNilSeedStartsRaw(t *testing.T) {
	s1 := seededShared(nil)
	b1 := s1.NewBuffer()
	for i := 0; i < 20; i++ {
		feedRun(b1.Regulator(), 0.01, 50.0)
	}
	if b1.Regulator().Level() == 0 {
		t.Fatal("setup failed: regulator never went up")
	}
	spillOneBlock(t, s1, b1)

	s2 := seededShared(nil)
	b2 := s2.NewBuffer()
	if got := spillOneBlock(t, s2, b2); got != codec.None {
		t.Fatalf("unseeded buffer wrote its first block as %v, want raw", got)
	}
}

// TestRegulatorMaxLevelCountsStartLevel: a warm start counts as reached, so
// RegMaxLevel is never below the level a buffer's regulator started at, even
// when it never climbed.
func TestRegulatorMaxLevelCountsStartLevel(t *testing.T) {
	var seed RegulatorSeed
	seed.level.Store(4)
	s := seededShared(&seed)
	b := s.NewBuffer()
	if b.Regulator().MaxLevel() != 4 {
		t.Fatalf("MaxLevel %d at a warm start from level 4", b.Regulator().MaxLevel())
	}
	spillOneBlock(t, s, b)
	res, _ := s.Finalize()
	if got := res.Counters[metrics.RegMaxLevel]; got < 4 {
		t.Fatalf("RegMaxLevel %d below the start level 4", got)
	}
}

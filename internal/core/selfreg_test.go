package core

import (
	"bytes"
	"testing"
	"time"

	"github.com/spilly-db/spilly/internal/codec"
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
		out, id := r.CompressBlock(page, 1)
		if id != DefaultScale[li] {
			t.Fatalf("scheme mismatch at level %d", li)
		}
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

func TestRegulatorHistogram(t *testing.T) {
	r := NewRegulator(4)
	page := bytes.Repeat([]byte("x y z "), 100)
	for i := 0; i < 8; i++ {
		r.CompressBlock(page, 1)
	}
	h := r.SchemeHistogram()
	var total int64
	for _, n := range h {
		total += n
	}
	if total != 8 {
		t.Fatalf("histogram total %d, want 8", total)
	}
}

// TestRegulatorCountsBlockPages: one call compresses a staging block of 16
// pages, and the run and the scheme histogram advance by 16 pages, not by one
// call — so the run length and the histogram keep counting pages.
func TestRegulatorCountsBlockPages(t *testing.T) {
	r := NewRegulator(64)
	block := bytes.Repeat(regPage, 16)
	r.CompressBlock(block, 16)
	if r.pagesInRun != 16 {
		t.Fatalf("run advanced by %d pages, want 16", r.pagesInRun)
	}
	if h := r.SchemeHistogram(); h[codec.None] != 16 {
		t.Fatalf("histogram %v, want 16 pages uncompressed", h)
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

func TestMergeHistograms(t *testing.T) {
	a := map[codec.ID]int64{codec.None: 2, codec.LZ4Default: 1}
	b := map[codec.ID]int64{codec.None: 3}
	m := MergeHistograms(a, b)
	if m[codec.None] != 5 || m[codec.LZ4Default] != 1 {
		t.Fatalf("merge wrong: %v", m)
	}
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

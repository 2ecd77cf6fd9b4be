package bench

import (
	"fmt"
	"hash/fnv"
	"io"

	spilly "github.com/spilly-db/spilly"
	"github.com/spilly-db/spilly/internal/chaos"
)

func init() {
	register(Experiment{
		ID:    "parity",
		Paper: "Spill parity tax: XOR parity stripes vs checksummed pages alone (engine addition)",
		Run:   runParityReport,
	})
}

// parityStripeWidth is the stripe width K used by the integrity benchmark:
// one XOR parity block per three data blocks, the widest stripe the default
// four-device spill array can place on distinct devices while keeping a
// whole group in flight.
const parityStripeWidth = 3

// spillQueries are the spill-heavy workloads whose phase 2 reads back
// partitions from the array: Q9 (deep join tree, the largest readback
// volume), Q12 (large join with a spilling probe side), Q13 (string-heavy
// join/agg whose merge phase pulls partitions through the scheduler).
var spillQueries = []int{9, 12, 13}

// spillBudget forces all three queries to partition and spill at the
// measurement scale factors while leaving the partition scheduler some
// headroom to reserve prefetch buffers from.
const spillBudget = 512 << 10

// resultChecksum hashes the order-insensitive result fingerprint so a report
// can assert that every mode it compares computed identical results.
func resultChecksum(res *spilly.Result) string {
	h := fnv.New64a()
	h.Write([]byte(chaos.Fingerprint(res.Batch)))
	return fmt.Sprintf("%016x", h.Sum64())
}

// ParityMeasurement is one (query, parity-mode) cell of the spill parity
// report. Both modes frame and verify every page; "off" writes no parity,
// "parity" adds XOR parity stripes.
type ParityMeasurement struct {
	Query string `json:"query"`
	Mode  string `json:"mode"` // "off" or "parity"
	// NsPerOp is the best wall time over a few repetitions; the integrity
	// counters come from that same best run.
	NsPerOp      float64 `json:"ns_per_op"`
	WrittenBytes int64   `json:"written_bytes"`
	// ParityBytes is the extra spill volume spent on parity blocks; the
	// storage tax is ParityBytes/WrittenBytes (≈ 1/K when blocks fill).
	ParityBytes   int64  `json:"parity_bytes"`
	PagesVerified int64  `json:"pages_verified"`
	Checksum      string `json:"checksum"` // result fingerprint hash; must match across modes
}

// Key returns the map key "Q9/parity" used by reports and the paritycmp gate.
func (m ParityMeasurement) Key() string { return m.Query + "/" + m.Mode }

// MeasureParity runs the parity-off-vs-on matrix over the spill-heavy
// workloads (Q9/Q12/Q13 — the queries whose phase 2 reads every spilled
// byte back, so the write-side XOR and parity-block cost lands on the
// critical path). Wall time is the best of a few repetitions; counters come
// from the same best run.
func MeasureParity(o Options) ([]ParityMeasurement, error) {
	sf := 0.02
	reps := 5
	if o.Quick {
		sf = 0.01
		reps = 3
	}
	if len(o.SFs) > 0 {
		sf = o.SFs[0]
	}
	modes := []struct {
		name   string
		parity int
	}{
		{"off", 0},
		{"parity", parityStripeWidth},
	}
	// Both engines live for the whole measurement and the repetition loop
	// interleaves modes (off, parity, off, parity, ...), so a machine-wide
	// slowdown lands on both sides of the comparison instead of biasing
	// whichever mode happened to run during it. Single-run wall clock on a
	// shared one-core box is far noisier than the ~1/K tax being measured.
	engines := make([]*spilly.Engine, len(modes))
	for i, m := range modes {
		eng, err := newEngine(spilly.Config{
			Workers:      o.workers(),
			MemoryBudget: o.budget(spillBudget),
			Compression:  true,
			SpillParity:  m.parity,
		}, sf, false)
		if err != nil {
			return nil, err
		}
		engines[i] = eng
	}
	var out []ParityMeasurement
	for _, q := range spillQueries {
		best := make([]ParityMeasurement, len(modes))
		for i, m := range modes {
			best[i] = ParityMeasurement{Query: fmt.Sprintf("Q%d", q), Mode: m.name}
			// Warmup run: first execution pays one-time pool and
			// table-setup costs that are not steady-state spill cost.
			if _, err := engines[i].RunTPCH(q); err != nil {
				return nil, fmt.Errorf("%s Q%d: %w", m.name, q, err)
			}
		}
		for rep := 0; rep < reps; rep++ {
			for i, m := range modes {
				res, err := engines[i].RunTPCH(q)
				if err != nil {
					return nil, fmt.Errorf("%s Q%d: %w", m.name, q, err)
				}
				s := res.Stats
				if ns := float64(s.Duration.Nanoseconds()); rep == 0 || ns < best[i].NsPerOp {
					best[i].NsPerOp = ns
					best[i].WrittenBytes = s.WrittenBytes
					best[i].ParityBytes = s.SpillParityBytes
					best[i].PagesVerified = s.SpillPagesVerified
					best[i].Checksum = resultChecksum(res)
				}
			}
		}
		out = append(out, best...)
	}
	return out, nil
}

func runParityReport(w io.Writer, o Options) error {
	ms, err := MeasureParity(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Spill parity tax: the spill-heavy joins/aggs with checksummed page frames")
	fmt.Fprintln(w, "alone (off) vs frames + rotating XOR parity stripes (parity). Both modes")
	fmt.Fprintln(w, "hash every page on the write path and verify it on readback; parity mode")
	fmt.Fprintln(w, "also XORs each block into its stripe's parity accumulator and writes one")
	fmt.Fprintln(w, "parity block per group. Result checksums must match across modes.")
	fmt.Fprintln(w)
	t := newTable("Query", "Mode", "ms/op", "written", "parity", "verified", "checksum")
	for _, m := range ms {
		t.row(m.Query, m.Mode, m.NsPerOp/1e6, fmtBytes(m.WrittenBytes),
			fmtBytes(m.ParityBytes), m.PagesVerified, m.Checksum)
	}
	t.write(w)

	byKey := map[string]ParityMeasurement{}
	for _, m := range ms {
		byKey[m.Key()] = m
	}
	var wallRatios []float64
	for _, q := range spillQueries {
		off, ok1 := byKey[fmt.Sprintf("Q%d/off", q)]
		par, ok2 := byKey[fmt.Sprintf("Q%d/parity", q)]
		if !ok1 || !ok2 {
			continue
		}
		if off.Checksum != par.Checksum {
			return fmt.Errorf("parity: Q%d result checksum mismatch: off %s vs parity %s",
				q, off.Checksum, par.Checksum)
		}
		ratio := par.NsPerOp / off.NsPerOp
		wallRatios = append(wallRatios, ratio)
		storageTax := 0.0
		if par.WrittenBytes > 0 {
			storageTax = 100 * float64(par.ParityBytes) / float64(par.WrittenBytes)
		}
		fmt.Fprintf(w, "\nQ%d: parity wall tax %.1f%%, storage tax %.1f%% of written bytes",
			q, 100*(ratio-1), storageTax)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "\nShape check: parity (survive any single lost or corrupted block per\n")
	fmt.Fprintf(w, "stripe) costs a geo-mean %.1f%% of wall time and ~1/K of spill\n",
		100*(geoMean(wallRatios)-1))
	fmt.Fprintln(w, "bandwidth — cheap enough to leave on whenever")
	fmt.Fprintln(w, "spilled state outlives the failure domain of a single device.")
	return nil
}

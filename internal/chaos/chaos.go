// Package chaos is the fault-injection test harness: it applies seeded
// fault schedules to the simulated NVMe arrays and fingerprints query
// results so tests can assert the engine's end-to-end fault contract —
// bit-identical results whenever retries succeed, and clean, prompt,
// leak-free failures otherwise.
//
// Schedules are deterministic: every probabilistic decision derives from
// Schedule.Seed (re-seeded per device), so a failing run replays exactly.
package chaos

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/nvmesim"
)

// Schedule describes one array-wide fault workload. The zero value injects
// nothing.
type Schedule struct {
	// Seed drives all probabilistic faults; each device gets a distinct
	// PRNG derived from it.
	Seed int64
	// ReadErrRate and WriteErrRate are per-request probabilities of a
	// transient (retryable) I/O error.
	ReadErrRate  float64
	WriteErrRate float64
	// SpikeRate is the per-request probability of adding SpikeLatency to
	// a request's completion time.
	SpikeRate    float64
	SpikeLatency time.Duration
	// KillDevice fails that device permanently after KillAfterOps
	// requests on it, or on its first read with KillOnRead; ignored while
	// neither is set.
	KillDevice   int
	KillAfterOps int64
	KillOnRead   bool
	// Script injects faults at exact 1-based request indices on device
	// ScriptDevice, overriding the probabilistic rates there. Use it to
	// guarantee a minimum fault dose on short queries, where a small rate
	// over a handful of requests often rounds to zero faults. Scripting a
	// single device keeps a retried write from marching through several
	// scripted first-ops and exhausting its whole retry budget.
	Script       map[int64]nvmesim.FaultKind
	ScriptDevice int
	// CorruptRate, TornWriteRate, and StaleReadRate inject silent faults —
	// a flipped bit, a write whose tail never persisted, a read served from
	// the wrong block — on CorruptDevice only. Silent-fault injection is
	// single-device by design: one XOR parity stripe recovers any one lost
	// block per group, so array-wide silent corruption is out of contract
	// (it is the double-fault case, which must fail structured instead).
	CorruptRate   float64
	TornWriteRate float64
	StaleReadRate float64
	CorruptDevice int
}

// Apply installs the schedule on every device of the array. Call Clear to
// remove it.
func (s Schedule) Apply(arr *nvmesim.Array) {
	for dev := 0; dev < arr.Devices(); dev++ {
		plan := nvmesim.FaultPlan{
			// Distinct, deterministic seed per device: identical
			// per-device plans would fault in lockstep.
			Seed:         s.Seed + int64(dev)*1_000_003,
			ReadErrRate:  s.ReadErrRate,
			WriteErrRate: s.WriteErrRate,
			SpikeRate:    s.SpikeRate,
			SpikeLatency: s.SpikeLatency,
		}
		if dev == s.ScriptDevice {
			plan.Script = s.Script
		}
		if dev == s.CorruptDevice {
			plan.CorruptRate = s.CorruptRate
			plan.TornWriteRate = s.TornWriteRate
			plan.StaleReadRate = s.StaleReadRate
		}
		if dev == s.KillDevice {
			plan.DieAfterOps = s.KillAfterOps
			plan.DieOnRead = s.KillOnRead
		}
		arr.SetFaultPlan(dev, plan)
	}
}

// Clear removes all fault plans and revives dead devices.
func Clear(arr *nvmesim.Array) {
	for dev := 0; dev < arr.Devices(); dev++ {
		arr.SetFaultPlan(dev, nvmesim.FaultPlan{})
		arr.Revive(dev)
	}
}

// Fingerprint renders a batch as one line per row, rows sorted, so two
// results compare regardless of row order (hash operators are
// order-insensitive). Integer, string, and date columns compare
// bit-identical. Float aggregates are compared rounded to float32 (24
// significant bits, a relative tolerance of about 1e-7): parallel summation
// order depends on morsel scheduling and I/O completion order, so even two
// fault-free runs differ in the last ULPs — a retried write must not change
// the data, but it may legally change the order pages come back in. The
// rounding is binary on purpose. TPC-H money sums are exact decimals, so any
// decimal rounding coarser than their own grid puts one value in ten exactly
// on a rounding tie, where one ULP decides the printed digit; a fixed number
// of decimals avoids the ties but is finer than float64 itself once a sum
// reaches 1e9.
func Fingerprint(b *data.Batch) string {
	if b == nil {
		return "(nil)"
	}
	rows := make([]string, 0, b.Rows())
	var sb strings.Builder
	for i, n := 0, b.Rows(); i < n; i++ {
		r := b.Row(i)
		sb.Reset()
		for c := range b.Cols {
			if c > 0 {
				sb.WriteByte('\t')
			}
			col := &b.Cols[c]
			switch {
			case col.Null != nil && col.Null[r]:
				sb.WriteString("NULL")
			case col.Type == data.Float64:
				sb.WriteString(strconv.FormatFloat(col.F[r], 'g', -1, 32))
			case col.Type == data.String:
				sb.WriteString(col.S[r])
			default:
				sb.WriteString(strconv.FormatInt(col.I[r], 10))
			}
		}
		rows = append(rows, sb.String())
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

package nvmesim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Fault injection for the simulated array.
//
// A production engine that pushes an NVMe array as hard as Spilly does must
// survive the array misbehaving: transient read/write errors, latency
// spikes, a device going dark, or the spill area filling mid-query. Real
// drives expose all of these through completion status codes; the simulator
// exposes them the same way — as errors (or inflated latencies) on the
// completions the uring layer reaps — so that every recovery path in the
// engine is exercised end to end.
//
// Faults are deterministic: each device draws from its own seeded PRNG, and
// scripted faults fire at exact per-device request indices. The chaos test
// harness (internal/chaos) relies on this to replay identical fault
// schedules across runs.

// Fault classification errors. Transient errors are safe to retry; a dead
// device never comes back (within a query) and anything stored on it is
// lost.
var (
	ErrTransient  = errors.New("nvmesim: transient I/O error")
	ErrDeviceDead = errors.New("nvmesim: device failed permanently")
)

// DeviceError wraps a device-level failure with the device it occurred on
// and the request class, so upper layers can re-stripe writes away from bad
// devices and report precise failure contexts.
type DeviceError struct {
	Device int
	Op     string // "read", "write", or "alloc"
	Err    error
}

// Error implements error.
func (e *DeviceError) Error() string {
	return fmt.Sprintf("device %d %s: %v", e.Device, e.Op, e.Err)
}

// Unwrap supports errors.Is/As chains.
func (e *DeviceError) Unwrap() error { return e.Err }

// IsTransient reports whether err is a retryable device error.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// IsDeviceDead reports whether err indicates a permanent device failure.
func IsDeviceDead(err error) bool { return errors.Is(err, ErrDeviceDead) }

// FaultKind classifies one injected fault.
type FaultKind uint8

// Fault kinds.
const (
	// FaultNone injects nothing (zero value; useful in scripts to
	// override a probabilistic fault at a specific request).
	FaultNone FaultKind = iota
	// FaultTransient fails the request with a retryable error.
	FaultTransient
	// FaultSpike completes the request normally but adds SpikeLatency.
	FaultSpike
	// FaultDeath fails the request and kills the device permanently.
	FaultDeath
	// FaultCorrupt completes the request "successfully" but flips one bit
	// in the data — in the stored block on a write (bit rot at rest), in
	// the returned buffer on a read. The device reports no error; only an
	// integrity layer above can notice.
	FaultCorrupt
	// FaultTorn applies to writes: only a prefix of the data reaches the
	// media (the tail half of the stored block is zeroed), yet the write
	// completes without error — the classic torn-write failure mode.
	FaultTorn
	// FaultStale applies to reads: the device returns the contents of a
	// different (previously written) block on the same device instead of
	// the requested one — a misdirected or stale read. No error is
	// reported.
	FaultStale
)

// FaultPlan configures fault injection for one device. The zero value
// injects nothing. All probabilistic decisions derive from Seed, so a plan
// produces the same fault sequence for the same request sequence.
type FaultPlan struct {
	// Seed seeds the device's fault PRNG.
	Seed int64
	// ReadErrRate and WriteErrRate are per-request probabilities of a
	// transient failure.
	ReadErrRate  float64
	WriteErrRate float64
	// SpikeRate is the per-request probability of a latency spike of
	// SpikeLatency (added on top of the modeled transfer time).
	SpikeRate    float64
	SpikeLatency time.Duration
	// CorruptRate is the per-request probability of a silent single-bit
	// flip (reads corrupt the returned buffer, writes corrupt the stored
	// block). The request still completes without error.
	CorruptRate float64
	// TornWriteRate is the per-write probability that only a prefix of
	// the data reaches the media (tail half zeroed) while the write still
	// reports success.
	TornWriteRate float64
	// StaleReadRate is the per-read probability of a misdirected read:
	// the device silently returns a different previously written block.
	StaleReadRate float64
	// DieAfterOps kills the device permanently on request DieAfterOps+1
	// (counting reads and writes together); 0 means never.
	DieAfterOps int64
	// DieOnRead kills the device permanently on its first read request,
	// with every block written to it before then lost.
	DieOnRead bool
	// Script maps 1-based request indices to faults, overriding the
	// probabilistic rates at those requests.
	Script map[int64]FaultKind
}

// faultState is the per-device fault injector.
type faultState struct {
	mu   sync.Mutex
	plan FaultPlan
	rng  *rand.Rand
	ops  int64
}

// roll decides the fault for the next request of class op. It returns the
// fault kind, the extra latency to add (for FaultSpike), and a deterministic
// random value the silent-corruption kinds use to pick the bit or block to
// damage.
func (f *faultState) roll(op string) (FaultKind, time.Duration, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	if k, ok := f.plan.Script[f.ops]; ok {
		switch k {
		case FaultSpike:
			return k, f.plan.SpikeLatency, 0
		case FaultCorrupt, FaultTorn, FaultStale:
			return k, 0, f.rng.Uint64()
		}
		return k, 0, 0
	}
	if f.plan.DieAfterOps > 0 && f.ops > f.plan.DieAfterOps || f.plan.DieOnRead && op == "read" {
		return FaultDeath, 0, 0
	}
	rate := f.plan.ReadErrRate
	if op == "write" {
		rate = f.plan.WriteErrRate
	}
	if rate > 0 && f.rng.Float64() < rate {
		return FaultTransient, 0, 0
	}
	if f.plan.CorruptRate > 0 && f.rng.Float64() < f.plan.CorruptRate {
		return FaultCorrupt, 0, f.rng.Uint64()
	}
	if op == "write" {
		if f.plan.TornWriteRate > 0 && f.rng.Float64() < f.plan.TornWriteRate {
			return FaultTorn, 0, f.rng.Uint64()
		}
	} else {
		if f.plan.StaleReadRate > 0 && f.rng.Float64() < f.plan.StaleReadRate {
			return FaultStale, 0, f.rng.Uint64()
		}
	}
	if f.plan.SpikeRate > 0 && f.rng.Float64() < f.plan.SpikeRate {
		return FaultSpike, f.plan.SpikeLatency, 0
	}
	return FaultNone, 0, 0
}

// SetFaultPlan arms fault injection on device dev. Passing a plan that
// injects nothing disarms it. Panics on a bad device index (fault plans are
// test/harness configuration, not a runtime path).
func (a *Array) SetFaultPlan(dev int, plan FaultPlan) {
	d := a.devices[dev]
	if plan.ReadErrRate == 0 && plan.WriteErrRate == 0 && plan.SpikeRate == 0 &&
		plan.CorruptRate == 0 && plan.TornWriteRate == 0 && plan.StaleReadRate == 0 &&
		plan.DieAfterOps == 0 && !plan.DieOnRead && len(plan.Script) == 0 {
		d.faults.Store(nil)
		return
	}
	d.faults.Store(&faultState{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))})
}

// KillDevice marks device dev permanently failed: every subsequent request
// (and spill allocation) on it errors with ErrDeviceDead.
func (a *Array) KillDevice(dev int) {
	a.devices[dev].dead.Store(true)
}

// Revive brings a killed device back (tests only; real queries treat death
// as permanent).
func (a *Array) Revive(dev int) {
	a.devices[dev].dead.Store(false)
}

// DeviceAlive reports whether device dev accepts requests.
func (a *Array) DeviceAlive(dev int) bool {
	return dev >= 0 && dev < len(a.devices) && !a.devices[dev].dead.Load()
}

// LiveDevices returns the number of devices still accepting requests.
func (a *Array) LiveDevices() int {
	n := 0
	for _, d := range a.devices {
		if !d.dead.Load() {
			n++
		}
	}
	return n
}

// DeviceFaults is a snapshot of one device's fault counters.
type DeviceFaults struct {
	ReadErrors  int64
	WriteErrors int64
	Spikes      int64
	// Silent-fault counters: requests that completed without error but
	// damaged data (bit flips, torn writes, misdirected reads).
	Corruptions int64
	TornWrites  int64
	StaleReads  int64
	Dead        bool
}

// FaultStats returns device dev's cumulative fault counters.
func (a *Array) FaultStats(dev int) DeviceFaults {
	d := a.devices[dev]
	return DeviceFaults{
		ReadErrors:  d.readErrs.Load(),
		WriteErrors: d.writeErrs.Load(),
		Spikes:      d.spikes.Load(),
		Corruptions: d.corrupts.Load(),
		TornWrites:  d.tornWrites.Load(),
		StaleReads:  d.staleReads.Load(),
		Dead:        d.dead.Load(),
	}
}

// faultEffect is a silent-fault directive handed back to the data path:
// the request completes without error, but the stored or returned bytes
// must be perturbed as kind dictates. r supplies deterministic randomness
// for choosing the bit or block to damage.
type faultEffect struct {
	kind FaultKind // FaultNone, FaultCorrupt, FaultTorn, or FaultStale
	r    uint64
}

// injectFault runs the device's fault machinery for one request of class op
// ("read" or "write"). It returns the error to fail the request with (nil =
// proceed), extra latency to add to the completion time, and any silent
// data-damage effect the data path must apply.
func (d *device) injectFault(dev int, op string) (error, time.Duration, faultEffect) {
	if d.dead.Load() {
		d.countErr(op)
		return &DeviceError{Device: dev, Op: op, Err: ErrDeviceDead}, 0, faultEffect{}
	}
	// Legacy knob: fail the next N requests with a transient error.
	if d.failNext.Load() > 0 && d.failNext.Add(-1) >= 0 {
		d.countErr(op)
		return &DeviceError{Device: dev, Op: op, Err: fmt.Errorf("injected %s failure: %w", op, ErrTransient)}, 0, faultEffect{}
	}
	f := d.faults.Load()
	if f == nil {
		return nil, 0, faultEffect{}
	}
	kind, spike, r := f.roll(op)
	switch kind {
	case FaultTransient:
		d.countErr(op)
		return &DeviceError{Device: dev, Op: op, Err: ErrTransient}, 0, faultEffect{}
	case FaultDeath:
		d.dead.Store(true)
		d.countErr(op)
		return &DeviceError{Device: dev, Op: op, Err: ErrDeviceDead}, 0, faultEffect{}
	case FaultSpike:
		d.spikes.Add(1)
		return nil, spike, faultEffect{}
	case FaultCorrupt:
		return nil, 0, faultEffect{kind: FaultCorrupt, r: r}
	case FaultTorn:
		if op == "write" {
			return nil, 0, faultEffect{kind: FaultTorn, r: r}
		}
	case FaultStale:
		if op == "read" {
			return nil, 0, faultEffect{kind: FaultStale, r: r}
		}
	}
	return nil, 0, faultEffect{}
}

func (d *device) countErr(op string) {
	if op == "write" {
		d.writeErrs.Add(1)
	} else {
		d.readErrs.Add(1)
	}
}

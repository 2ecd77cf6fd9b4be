package metrics

import (
	"sync"
	"sync/atomic"
)

// FaultTracker accumulates query outcomes across queries: started,
// completed, failed, aborted by cancellation, and fatal errors per device.
// (Recovered faults — retries, failovers, reconstructions — are counters of
// the table in counters.go, summed in the engine's lifetime totals.) The
// engine updates it as queries end; chaos tests and operators read it.
type FaultTracker struct {
	canceled  atomic.Int64
	failed    atomic.Int64
	started   atomic.Int64
	completed atomic.Int64

	mu        sync.Mutex
	devErrors map[int]int64
}

// NewFaultTracker returns an empty tracker.
func NewFaultTracker() *FaultTracker {
	return &FaultTracker{devErrors: map[int]int64{}}
}

// QueryCanceled records a query aborted by context cancellation.
func (t *FaultTracker) QueryCanceled() { t.canceled.Add(1) }

// QueryFailed records a query that returned a fatal error.
func (t *FaultTracker) QueryFailed() { t.failed.Add(1) }

// QueryStarted records a query beginning execution.
func (t *FaultTracker) QueryStarted() { t.started.Add(1) }

// QueryCompleted records a query finishing successfully.
func (t *FaultTracker) QueryCompleted() { t.completed.Add(1) }

// DeviceError records one I/O error on the given device.
func (t *FaultTracker) DeviceError(dev int, n int64) {
	t.mu.Lock()
	t.devErrors[dev] += n
	t.mu.Unlock()
}

// FaultCounts is a point-in-time snapshot of a FaultTracker.
type FaultCounts struct {
	CanceledQueries  int64
	FailedQueries    int64
	StartedQueries   int64
	CompletedQueries int64
	DeviceErrors     map[int]int64
}

// Snapshot returns the current counters.
func (t *FaultTracker) Snapshot() FaultCounts {
	c := FaultCounts{
		CanceledQueries:  t.canceled.Load(),
		FailedQueries:    t.failed.Load(),
		StartedQueries:   t.started.Load(),
		CompletedQueries: t.completed.Load(),
		DeviceErrors:     map[int]int64{},
	}
	t.mu.Lock()
	for dev, n := range t.devErrors {
		c.DeviceErrors[dev] = n
	}
	t.mu.Unlock()
	return c
}

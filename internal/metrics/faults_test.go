package metrics

import (
	"sync"
	"testing"
)

func TestFaultTracker(t *testing.T) {
	ft := NewFaultTracker()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ft.DeviceError(i%2, 3)
		}(i)
	}
	wg.Wait()
	ft.QueryCanceled()
	ft.QueryFailed()

	c := ft.Snapshot()
	if c.CanceledQueries != 1 || c.FailedQueries != 1 {
		t.Fatalf("canceled=%d failed=%d, want 1/1", c.CanceledQueries, c.FailedQueries)
	}
	if c.DeviceErrors[0] != 12 || c.DeviceErrors[1] != 12 {
		t.Fatalf("device errors = %v, want 12 each", c.DeviceErrors)
	}
}

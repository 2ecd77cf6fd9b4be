package exec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/pages"
)

// TestWorkerPanicBecomesQueryError: a panic inside a worker must fail the
// query with a structured error carrying the operator name and the panic
// message — never crash the process or hang sibling workers.
func TestWorkerPanicBecomesQueryError(t *testing.T) {
	schema := data.NewSchema(data.ColumnDef{Name: "x", Type: data.Int64})
	s := &Stream{
		schema: schema,
		next: func(w int, b *data.Batch) (int, error) {
			if w == 0 {
				panic("worker exploded")
			}
			return 0, nil
		},
	}
	err := Drain(&Ctx{Workers: 2}, s, nil)
	var qe *core.QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v (%T), want *QueryError", err, err)
	}
	if qe.Op != "drain" {
		t.Fatalf("QueryError.Op = %q, want \"drain\"", qe.Op)
	}
	if !strings.Contains(qe.Err.Error(), "worker exploded") {
		t.Fatalf("panic message lost: %v", qe.Err)
	}
}

// TestWorkerOOMPanicStaysIdentity: the out-of-memory panic must keep
// converting to the bare ErrOutOfMemory sentinel — callers compare it by
// identity.
func TestWorkerOOMPanicStaysIdentity(t *testing.T) {
	err := runWorkers("agg", 2, func(w int) error {
		if w == 1 {
			// A buffer with nowhere to spill panics once its budget is gone.
			buf := core.NewShared(core.Config{PageSize: 4096, Budget: pages.NewBudget(4096)}).NewBuffer()
			for {
				buf.StoreTuple(make([]byte, 64), 0)
			}
		}
		return nil
	})
	if err != core.ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory by identity", err)
	}
}

// TestDrainObservesCancellation: a canceled context stops the batch loop
// even when the stream itself would keep producing forever.
func TestDrainObservesCancellation(t *testing.T) {
	schema := data.NewSchema(data.ColumnDef{Name: "x", Type: data.Int64})
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	s := &Stream{
		schema: schema,
		next: func(w int, b *data.Batch) (int, error) {
			n++
			if n == 3 {
				cancel()
			}
			b.Reset()
			b.Cols[0].I = append(b.Cols[0].I[:0], 1)
			b.SetLen(1)
			return 1, nil
		},
	}
	err := Drain(&Ctx{Workers: 1, Context: ctx}, s, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	var qe *core.QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QueryError", err)
	}
}

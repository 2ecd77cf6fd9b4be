package pages

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestGovernorIdleGetsFullBudget(t *testing.T) {
	g := NewGovernor(1<<20, 1<<16)
	grant, wait, err := g.Admit(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if grant.Bytes() != 1<<20 {
		t.Fatalf("idle grant = %d, want full budget %d", grant.Bytes(), 1<<20)
	}
	if wait != 0 {
		t.Fatalf("idle admission waited %v", wait)
	}
	grant.Release()
	if got := g.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after release, want 0", got)
	}
}

func TestGovernorConcurrentSharesAndQueues(t *testing.T) {
	g := NewGovernor(1<<20, 1<<19) // floor = half: at most two admitted
	g1, _, err := g.Admit(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Second admission shares: half of nothing is left after the idle
	// grant took everything, so it must queue until g1 releases.
	done := make(chan *Grant, 1)
	go func() {
		g2, _, err := g.Admit(context.Background(), 5*time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- g2
	}()
	// Queued, not admitted.
	time.Sleep(20 * time.Millisecond)
	if s := g.Stats(); s.Queued != 1 || s.Active != 1 {
		t.Fatalf("stats before release: %+v", s)
	}
	g1.Release()
	g2 := <-done
	if g2.Bytes() < g.Floor() {
		t.Fatalf("woken grant %d below floor %d", g2.Bytes(), g.Floor())
	}
	g2.Release()
	if got := g.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d, want 0", got)
	}
}

func TestGovernorFIFOOrder(t *testing.T) {
	g := NewGovernor(100, 100) // serial: every grant is the whole budget
	first, _, err := g.Admit(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 3)
	var wg sync.WaitGroup
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			grant, _, err := g.Admit(context.Background(), 10*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			order <- i
			grant.Release()
		}(i)
		// Ensure deterministic queue order.
		for {
			if g.Stats().Queued == i {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	first.Release()
	wg.Wait()
	close(order)
	want := 1
	for got := range order {
		if got != want {
			t.Fatalf("admission order: got %d, want %d", got, want)
		}
		want++
	}
	if got := g.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d, want 0", got)
	}
}

func TestGovernorAdmissionTimeout(t *testing.T) {
	g := NewGovernor(100, 100)
	grant, _, err := g.Admit(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_, wait, err := g.Admit(context.Background(), 30*time.Millisecond)
	if !errors.Is(err, ErrAdmissionTimeout) {
		t.Fatalf("err = %v, want ErrAdmissionTimeout", err)
	}
	if wait < 30*time.Millisecond {
		t.Fatalf("timeout reported wait %v", wait)
	}
	if s := g.Stats(); s.Queued != 0 || s.Timeouts != 1 {
		t.Fatalf("stats after timeout: %+v", s)
	}
	grant.Release()
	if got := g.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d, want 0", got)
	}
}

func TestGovernorCancelWhileQueued(t *testing.T) {
	g := NewGovernor(100, 100)
	grant, _, err := g.Admit(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := g.Admit(ctx, time.Minute)
		errc <- err
	}()
	for g.Stats().Queued != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := g.Stats(); s.Queued != 0 {
		t.Fatalf("queue slot not released: %+v", s)
	}
	// The canceled waiter must not have consumed budget: a new admission
	// succeeds immediately once the holder releases.
	grant.Release()
	g2, _, err := g.Admit(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	g2.Release()
	if got := g.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d, want 0", got)
	}
}

func TestGovernorGrantReleaseIdempotent(t *testing.T) {
	g := NewGovernor(100, 10)
	grant, _, err := g.Admit(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	grant.Release()
	grant.Release()
	if got := g.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after double release, want 0", got)
	}
	if s := g.Stats(); s.Active != 0 {
		t.Fatalf("Active = %d after double release, want 0", s.Active)
	}
}

package core

import (
	"context"
	"errors"
	"testing"

	"github.com/spilly-db/spilly/internal/metrics"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/pages"
)

// spillConfig is the common spilling setup for fault tests: a tight budget
// so every test actually pushes pages through the writer.
func spillConfig(arr *nvmesim.Array, ctx context.Context) Config {
	return Config{
		Ctx: ctx, PageSize: 4096, Partitions: 8,
		Budget: pages.NewBudget(32 << 10), PartitionAt: 0.3,
		Spill: &SpillConfig{Array: arr},
	}
}

// assertWriterClean checks the buffer-reclamation invariant: after Finish —
// on any path — the writer tracks no in-flight buffers and holds no staging
// areas.
func assertWriterClean(t *testing.T, b *Buffer) {
	t.Helper()
	if b.writer == nil {
		t.Fatal("test did not spill")
	}
	if n := len(b.writer.inflight); n != 0 {
		t.Fatalf("%d in-flight writes still tracked after Finish", n)
	}
	for part, st := range b.writer.staging {
		if st != nil {
			t.Fatalf("staging area for partition %d leaked", part)
		}
	}
}

func TestSpillTransientWriteRetrySucceeds(t *testing.T) {
	arr := fastArray(2)
	// Every device: fail the first two writes transiently. The retry path
	// must recover and the spilled data must read back exactly.
	for dev := 0; dev < 2; dev++ {
		arr.SetFaultPlan(dev, nvmesim.FaultPlan{
			Script: map[int64]nvmesim.FaultKind{1: nvmesim.FaultTransient},
		})
	}
	s := NewShared(spillConfig(arr, nil))
	b := s.NewBuffer()
	const n = 20000
	storeN(b, n, 32, 0)
	if err := b.Finish(); err != nil {
		t.Fatalf("transient write errors were not recovered: %v", err)
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasSpilled() {
		t.Fatal("did not spill")
	}
	if res.Counters[metrics.SpillRetries] == 0 {
		t.Fatal("no retries counted despite scripted transient faults")
	}
	assertWriterClean(t, b)
	checkAllKeys(t, collectKeys(t, arr, res), n, 0)
}

func TestSpillFailoverFromDyingDevice(t *testing.T) {
	arr := fastArray(2)
	// Device 0 dies on its very first request: the failed write must be
	// re-striped onto device 1 and nothing is lost (no data ever landed
	// on device 0).
	arr.SetFaultPlan(0, nvmesim.FaultPlan{
		Script: map[int64]nvmesim.FaultKind{1: nvmesim.FaultDeath},
	})
	s := NewShared(spillConfig(arr, nil))
	b := s.NewBuffer()
	const n = 20000
	storeN(b, n, 32, 0)
	if err := b.Finish(); err != nil {
		t.Fatalf("device death was not failed over: %v", err)
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters[metrics.SpillFailovers] == 0 {
		t.Fatal("no failovers counted despite a dead device")
	}
	if arr.DeviceAlive(0) {
		t.Fatal("scripted FaultDeath did not kill the device")
	}
	assertWriterClean(t, b)
	checkAllKeys(t, collectKeys(t, arr, res), n, 0)
}

func TestSpillAllDevicesDeadIsFatal(t *testing.T) {
	arr := fastArray(2)
	for dev := 0; dev < 2; dev++ {
		arr.SetFaultPlan(dev, nvmesim.FaultPlan{
			Script: map[int64]nvmesim.FaultKind{1: nvmesim.FaultDeath},
		})
	}
	s := NewShared(spillConfig(arr, nil))
	b := s.NewBuffer()
	storeN(b, 20000, 32, 0)
	err := b.Finish()
	if err == nil {
		t.Fatal("spilling with every device dead did not fail")
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v (%T), want *QueryError", err, err)
	}
	if !nvmesim.IsDeviceDead(err) {
		t.Fatalf("err = %v, want a device-death cause", err)
	}
	assertWriterClean(t, b)
}

func TestSpillRetryBudgetExhausts(t *testing.T) {
	arr := fastArray(1)
	// Unconditional transient failures: retries must give up after the
	// capped attempt budget instead of spinning forever.
	arr.SetFaultPlan(0, nvmesim.FaultPlan{WriteErrRate: 1})
	s := NewShared(spillConfig(arr, nil))
	b := s.NewBuffer()
	storeN(b, 20000, 32, 0)
	err := b.Finish()
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v (%T), want *QueryError", err, err)
	}
	if qe.Device != 0 {
		t.Fatalf("QueryError.Device = %d, want 0", qe.Device)
	}
	if !nvmesim.IsTransient(err) {
		t.Fatalf("err = %v, want the transient cause preserved", err)
	}
	assertWriterClean(t, b)
}

func TestSpillCancellationReclaimsBuffers(t *testing.T) {
	arr := fastArray(2)
	ctx, cancel := context.WithCancel(context.Background())
	s := NewShared(spillConfig(arr, ctx))
	b := s.NewBuffer()
	storeN(b, 10000, 32, 0)
	cancel() // mid-stream: writes are still in flight
	storeN(b, 10000, 32, 10000)
	err := b.Finish()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	assertWriterClean(t, b)
	// Every page the writer owned must be back in the pool: with nothing
	// in flight, free pages plus pages still live in the buffer account
	// for every page ever created.
	live := 0
	for _, p := range b.output {
		if p != nil {
			live++
		}
	}
	live += len(b.kept)
	// Finish retires clean free-list pages via Pool.Close (crediting the
	// budget), so conservation is free + live + closed == created.
	if got := b.pool.FreePages() + live + b.pool.Closed(); got != b.pool.Created() {
		t.Fatalf("pages leaked on cancel: %d free + %d live + %d closed of %d created",
			b.pool.FreePages(), live, b.pool.Closed(), b.pool.Created())
	}
}

func TestReadTransientRetrySucceeds(t *testing.T) {
	arr := fastArray(2)
	s := NewShared(spillConfig(arr, nil))
	b := s.NewBuffer()
	const n = 20000
	storeN(b, n, 32, 0)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	// Arm read faults only after the data is safely written.
	for dev := 0; dev < 2; dev++ {
		arr.SetFaultPlan(dev, nvmesim.FaultPlan{
			Script: map[int64]nvmesim.FaultKind{1: nvmesim.FaultTransient},
		})
	}
	got := map[uint64]int{}
	var retries int64
	scan := func(p *pages.Page) {
		for i := 0; i < p.Tuples(); i++ {
			got[keyOf(p.Tuple(i))]++
		}
	}
	for _, p := range res.MemPages() {
		scan(p)
	}
	for part := 0; part < res.Partitions; part++ {
		if len(res.Spilled[part]) == 0 {
			continue
		}
		r := openPartition(t, nil, arr, part, res.Spilled[part], nil)
		pgs, err := readAll(r)
		if err != nil {
			t.Fatalf("reading partition %d under transient faults: %v", part, err)
		}
		retries += r.Counters()[metrics.SpillRetries]
		for _, p := range pgs {
			scan(p)
		}
		r.Release()
	}
	if retries == 0 {
		t.Fatal("no read retries counted despite scripted transient faults")
	}
	checkAllKeys(t, got, n, 0)
}

func TestReadDeadDeviceIsFatal(t *testing.T) {
	arr := fastArray(2)
	s := NewShared(spillConfig(arr, nil))
	b := s.NewBuffer()
	storeN(b, 20000, 32, 0)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	// Reads cannot fail over — the spilled data has exactly one copy.
	arr.KillDevice(0)
	var fatal error
	for part := 0; part < res.Partitions; part++ {
		if len(res.Spilled[part]) == 0 {
			continue
		}
		r := openPartition(t, nil, arr, part, res.Spilled[part], nil)
		_, err := readAll(r)
		r.Release()
		if err != nil {
			fatal = err
			break
		}
	}
	var qe *QueryError
	if !errors.As(fatal, &qe) {
		t.Fatalf("err = %v (%T), want *QueryError", fatal, fatal)
	}
	if qe.Device != 0 {
		t.Fatalf("QueryError.Device = %d, want 0", qe.Device)
	}
	if !nvmesim.IsDeviceDead(fatal) {
		t.Fatalf("err = %v, want a device-death cause", fatal)
	}
}

func TestReadCancellation(t *testing.T) {
	arr := fastArray(1)
	s := NewShared(spillConfig(arr, nil))
	b := s.NewBuffer()
	storeN(b, 20000, 32, 0)
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for part := 0; part < res.Partitions; part++ {
		if len(res.Spilled[part]) == 0 {
			continue
		}
		r := openPartition(t, ctx, arr, part, res.Spilled[part], nil)
		_, err := readAll(r)
		r.Release()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled in the chain", err)
		}
		return
	}
	t.Fatal("nothing spilled; reader cancellation not exercised")
}

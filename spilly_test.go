package spilly

import (
	"reflect"
	"strings"
	"testing"

	"github.com/spilly-db/spilly/internal/core"
)

func TestOpenAndRunTPCHInMemory(t *testing.T) {
	eng, err := Open(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTPCH(0.005, false); err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunTPCH(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Len() == 0 || res.Stats.ScannedRows == 0 || res.Stats.TuplesPerSec <= 0 {
		t.Fatalf("bad result: %+v", res.Stats)
	}
	if res.Stats.SpilledBytes != 0 {
		t.Fatal("unlimited budget spilled")
	}
}

func TestRunTPCHFromArrayWithSpilling(t *testing.T) {
	eng, err := Open(Config{
		Workers:      2,
		MemoryBudget: 256 << 10,
		Compression:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTPCH(0.005, true); err != nil {
		t.Fatal(err)
	}
	// Q9 materializes partsupp and orders; with a 256 KB budget it must
	// spill and still produce the same rows as the in-memory run.
	res, err := eng.RunTPCH(9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpilledBytes == 0 {
		t.Fatal("Q9 under 256KB budget did not spill")
	}

	ref, err := Open(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref.LoadTPCH(0.005, false)
	want, err := ref.RunTPCH(9)
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := res.Table(), want.Table(); got != exp {
		t.Fatalf("spilling external run differs from in-memory run:\n%s\nvs\n%s", got, exp)
	}
}

func TestInMemoryOnlyEngineFails(t *testing.T) {
	eng, err := Open(Config{Workers: 2, MemoryBudget: 64 << 10, Baseline: InMemoryOnly})
	if err != nil {
		t.Fatal(err)
	}
	eng.LoadTPCH(0.005, false)
	if _, err := eng.RunTPCH(9); err != core.ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestPublicPlanBuilding(t *testing.T) {
	eng, _ := Open(Config{Workers: 2})
	schema := NewSchema(ColumnDef{Name: "k", Type: Int64}, ColumnDef{Name: "v", Type: Float64})
	mt := NewMemTable("points", schema, 0)
	b := NewBatch(schema, 100)
	for i := 0; i < 100; i++ {
		b.Cols[0].I = append(b.Cols[0].I, int64(i%10))
		b.Cols[1].F = append(b.Cols[1].F, float64(i))
	}
	b.SetLen(100)
	mt.Append(b)
	eng.RegisterTable(mt)

	tbl, err := eng.Table("points")
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScan(tbl)
	sc.Filter = Cmp("<", Col(sc.Schema(), "k"), ConstInt(5))
	agg := NewAgg(sc, []string{"k"}, []AggSpec{{Func: Sum, Col: "v", As: "total"}})
	sorted := &ExtSortNode{Child: agg, Keys: []SortKey{{Col: "k"}}}
	res, err := eng.Run(sorted)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Len() != 5 {
		t.Fatalf("groups = %d, want 5", res.Batch.Len())
	}
	// Group k: values k, k+10, ..., k+90 → sum = 10k + 450.
	for r := 0; r < 5; r++ {
		k := res.Batch.Cols[0].I[r]
		if res.Batch.Cols[1].F[r] != float64(10*k+450) {
			t.Fatalf("group %d sum = %v", k, res.Batch.Cols[1].F[r])
		}
	}
}

func TestFormatBatch(t *testing.T) {
	schema := NewSchema(ColumnDef{Name: "name", Type: String}, ColumnDef{Name: "d", Type: Date})
	b := NewBatch(schema, 2)
	b.Cols[0].S = []string{"a", "bb"}
	b.Cols[1].I = []int64{ParseDate("1995-01-01"), ParseDate("1996-02-02")}
	b.SetLen(2)
	out := FormatBatch(b, 1)
	if !strings.Contains(out, "1995-01-01") || !strings.Contains(out, "1 more rows") {
		t.Fatalf("format output:\n%s", out)
	}
}

func TestTraceQuery(t *testing.T) {
	eng, err := Open(Config{Workers: 2, MemoryBudget: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	eng.LoadTPCH(0.01, false)
	res, samples, err := eng.TraceQuery(eng.AggMicroPlan(), 2e6) // 2ms sampling
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpilledBytes == 0 {
		t.Fatal("trace target did not spill")
	}
	if len(samples) == 0 {
		t.Fatal("no trace samples collected")
	}
	sawWrite := false
	for _, s := range samples {
		if s.Rates["spill_write"] > 0 {
			sawWrite = true
		}
	}
	if !sawWrite {
		t.Fatal("trace never observed spill writes")
	}
}

// TestConfigSurface pins the number of Config fields. Every independently
// settable field doubles the configurations tests and benchmarks must cover,
// so a new field needs two non-test callers at the parent commit that want
// different values for it; with one value in use it is a constant, and a
// value the engine can derive from its inputs is derived.
func TestConfigSurface(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n != 14 {
		t.Fatalf("Config has %d fields, want 14", n)
	}
}

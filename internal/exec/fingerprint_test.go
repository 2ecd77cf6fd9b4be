package exec

import (
	"testing"

	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/data"
)

func fpTestTable(t *testing.T, name string) colstore.Table {
	t.Helper()
	sch := &data.Schema{Cols: []data.ColumnDef{
		{Name: "k", Type: data.Int64},
		{Name: "v", Type: data.Float64},
		{Name: "s", Type: data.String},
	}}
	mt := colstore.NewMemTable(name, sch, 1024)
	b := data.NewBatch(sch, 4)
	for i := 0; i < 4; i++ {
		b.Cols[0].I = append(b.Cols[0].I, int64(i))
		b.Cols[1].F = append(b.Cols[1].F, float64(i)*1.5)
		b.Cols[2].S = append(b.Cols[2].S, "row")
	}
	b.SetLen(4)
	mt.Append(b)
	return mt
}

func fpTestPlan(tbl colstore.Table, threshold int64) Node {
	scan := NewScan(tbl, "k", "v")
	sch := scan.Schema()
	scan.Filter = Cmp("<", Col(sch, "k"), ConstInt(threshold))
	return &Agg{
		Child:   scan,
		GroupBy: []string{"k"},
		Aggs:    []AggSpec{{Func: Sum, Col: "v", As: "sum_v"}},
	}
}

// TestPlanFingerprintDeterministic: structurally identical plans built
// twice must hash identically — the property the result cache keys on.
func TestPlanFingerprintDeterministic(t *testing.T) {
	tbl := fpTestTable(t, "fp_t")
	a, okA := PlanFingerprint(fpTestPlan(tbl, 2))
	b, okB := PlanFingerprint(fpTestPlan(tbl, 2))
	if !okA || !okB {
		t.Fatalf("cacheable plans reported uncacheable: %v %v", okA, okB)
	}
	if a != b {
		t.Fatalf("identical plans fingerprint differently: %#x vs %#x", a, b)
	}
}

// TestPlanFingerprintSensitivity: any change to a literal, a key list, an
// operator knob, or the underlying table name must change the hash.
func TestPlanFingerprintSensitivity(t *testing.T) {
	tbl := fpTestTable(t, "fp_t")
	base, _ := PlanFingerprint(fpTestPlan(tbl, 2))

	if fp, _ := PlanFingerprint(fpTestPlan(tbl, 3)); fp == base {
		t.Error("changed literal, same fingerprint")
	}
	if fp, _ := PlanFingerprint(fpTestPlan(fpTestTable(t, "fp_u"), 2)); fp == base {
		t.Error("changed table name, same fingerprint")
	}
	// A different snapshot under the same name is a different plan: the
	// scan hashes the table's process-unique ID, so a plan built before a
	// re-registration never aliases one built after it.
	if fp, _ := PlanFingerprint(fpTestPlan(fpTestTable(t, "fp_t"), 2)); fp == base {
		t.Error("re-built table snapshot, same fingerprint")
	}

	sorted, ok := PlanFingerprint(&ExtSort{Child: fpTestPlan(tbl, 2), Keys: []SortKey{{Col: "k"}}})
	if !ok {
		t.Fatal("sort plan uncacheable")
	}
	if sorted == base {
		t.Error("added sort, same fingerprint")
	}
	withLimit, ok := PlanFingerprint(&ExtSort{Child: fpTestPlan(tbl, 2), Keys: []SortKey{{Col: "k"}}, Limit: 10})
	if !ok {
		t.Fatal("limited sort plan uncacheable")
	}
	if withLimit == sorted {
		t.Error("added limit, same fingerprint")
	}
	sortedDesc, _ := PlanFingerprint(&ExtSort{Child: fpTestPlan(tbl, 2), Keys: []SortKey{{Col: "k", Desc: true}}})
	if sorted == sortedDesc {
		t.Error("sort direction ignored by fingerprint")
	}
}

// TestPlanFingerprintUncacheable: a node type the walker does not know has
// no structural hash, so plans containing it must refuse a fingerprint rather
// than alias some other plan.
func TestPlanFingerprintUncacheable(t *testing.T) {
	tbl := fpTestTable(t, "fp_t")

	// A zero-value (absent) filter is fine — that's a plain full scan.
	if _, ok := PlanFingerprint(NewScan(tbl, "k")); !ok {
		t.Fatal("filterless scan should be cacheable")
	}

	// Unknown node types propagate uncacheability upward.
	if _, ok := PlanFingerprint(&FilterNode{Child: unknownNode{tbl}, Pred: IsNotNull(NewScan(tbl).Schema(), "k")}); ok {
		t.Fatal("plan over unknown node type should be uncacheable")
	}
}

type unknownNode struct{ tbl colstore.Table }

func (u unknownNode) Schema() *data.Schema        { return u.tbl.Schema() }
func (u unknownNode) Run(ctx *Ctx) (*Stream, error) { return nil, nil }

// TestPlanFingerprintValuesContent: ValuesNode payload (scalar subquery
// results) is part of plan identity.
func TestPlanFingerprintValuesContent(t *testing.T) {
	sch := &data.Schema{Cols: []data.ColumnDef{{Name: "x", Type: data.Float64}}}
	mk := func(v float64) *ValuesNode {
		b := data.NewBatch(sch, 1)
		b.Cols[0].F = append(b.Cols[0].F, v)
		b.SetLen(1)
		return &ValuesNode{Batch: b}
	}
	a, okA := PlanFingerprint(mk(1.0))
	b, _ := PlanFingerprint(mk(2.0))
	if !okA {
		t.Fatal("values plan uncacheable")
	}
	if a == b {
		t.Error("different values content, same fingerprint")
	}
}

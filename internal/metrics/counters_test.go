package metrics

import (
	"encoding/json"
	"sync"
	"testing"
)

// TestCounterTableComplete: every counter has a definition row that names it
// on every surface, no two counters share a name, and flags combine as Max.
// Rows share a family only as its labelled samples: consecutive, of one kind
// and unit, under one label name, each with its own value.
func TestCounterTableComplete(t *testing.T) {
	jsonKeys, samples, labels := map[string]Counter{}, map[string]Counter{}, map[string]Counter{}
	families := map[string]Counter{} // family → its first row
	for k := Counter(0); k < NumCounters; k++ {
		d := k.Def()
		if d.JSON == "" || d.Family == "" || d.Help == "" {
			t.Errorf("counter %d: incomplete definition %+v", k, *d)
		}
		if d.Unit == Flag && d.Kind != Max {
			t.Errorf("%s: a flag must be Max-kind", d.JSON)
		}
		sample := d.Family + "{" + d.Labels.String() + "}"
		for name, seen := range map[string]map[string]Counter{d.JSON: jsonKeys, sample: samples, d.Label: labels} {
			if prev, dup := seen[name]; dup && name != "" {
				t.Errorf("%q names both counter %d and counter %d", name, prev, k)
			}
			seen[name] = k
		}
		first, shared := families[d.Family]
		if !shared {
			families[d.Family] = k
			continue
		}
		f := first.Def()
		if (k-1).Def().Family != d.Family || d.Labels.Name == "" || d.Labels.Name != f.Labels.Name ||
			d.Kind != f.Kind || d.Unit != f.Unit || d.Help != f.Help {
			t.Errorf("%s: shares family %s with counter %d but is not its next labelled sample", d.JSON, d.Family, first)
		}
	}
}

// TestMergeByKind: Sum counters add, Max counters keep the largest — in a
// live set and in a snapshot alike.
func TestMergeByKind(t *testing.T) {
	a := Snapshot{SpilledBytes: 10, RegMaxLevel: 3, Partitioned: 1}
	b := Snapshot{SpilledBytes: 5, RegMaxLevel: 2, SpillStallNanos: 7}
	want := Snapshot{SpilledBytes: 15, RegMaxLevel: 3, Partitioned: 1, SpillStallNanos: 7}

	var live Counters
	live.Merge(&a)
	live.Merge(&b)
	if got := live.Load(); got != want {
		t.Errorf("Counters.Merge = %v, want %v", got, want)
	}
	if live.Get(SpilledBytes) != 15 {
		t.Errorf("Get(SpilledBytes) = %d, want 15", live.Get(SpilledBytes))
	}
	sum := a
	sum.Merge(&b)
	if sum != want {
		t.Errorf("Snapshot.Merge = %v, want %v", sum, want)
	}
}

// TestCountersConcurrent: Merge races Load and Get (run under -race in make
// race); no update may be lost.
func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Merge(&Snapshot{ScannedRows: 1, BudgetPeakBytes: int64(i)})
				c.Merge(&Snapshot{SpilledBytes: 2, RegMaxLevel: int64(i % 8)})
				_, _ = c.Load(), c.Get(RegMaxLevel)
			}
		}()
	}
	wg.Wait()
	got := c.Load()
	if got[ScannedRows] != 4000 || got[SpilledBytes] != 8000 || got[BudgetPeakBytes] != 999 || got[RegMaxLevel] != 7 {
		t.Fatalf("lost updates: %v", got)
	}
}

// TestMarshalWith: counters become members of the header's object under
// their table keys, flags as booleans, zeros kept or dropped as asked.
func TestMarshalWith(t *testing.T) {
	n := Snapshot{ScannedRows: 12, Partitioned: 1, SpillStallNanos: 99}
	header := struct {
		ID int `json:"id"`
	}{7}
	marshal := func(omitZero bool) (got map[string]any) {
		b, err := n.MarshalWith(header, omitZero)
		if err == nil {
			err = json.Unmarshal(b, &got)
		}
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	got := marshal(true)
	want := map[string]any{"id": 7.0, "scanned_rows": 12.0, "partitioned": true, "spill_stall_ns": 99.0}
	if len(got) != len(want) {
		t.Fatalf("omitZero object = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}

	got = marshal(false)
	if len(got) != 1+int(NumCounters) {
		t.Fatalf("full object has %d members, want id + %d counters", len(got), NumCounters)
	}
	if got["spilled_bytes"] != 0.0 || got["partitioned"] != true {
		t.Errorf("spilled_bytes = %v, partitioned = %v", got["spilled_bytes"], got["partitioned"])
	}
}

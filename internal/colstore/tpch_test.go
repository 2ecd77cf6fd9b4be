package colstore_test

import (
	"math"
	"sync/atomic"
	"testing"

	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/nvmesim"
	"github.com/spilly-db/spilly/internal/tpch"
)

// tpchTables returns the generated tables in a fixed order.
func tpchTables(g *tpch.Gen) []*colstore.MemTable {
	byName := g.All()
	tables := make([]*colstore.MemTable, len(tpch.TableNames))
	for i, name := range tpch.TableNames {
		tables[i] = byName[name]
	}
	return tables
}

func zeroLatencyStore(devices int) *colstore.Store {
	return colstore.NewStore(nvmesim.New(devices, nvmesim.DeviceSpec{}, nvmesim.RealClock{}), nil)
}

// TestEveryColumnStripedOverEveryDevice: whatever the column count, a
// column's chunks visit all devices evenly — a one-column scan reads at array
// speed, not at one SSD's. Placing chunk number k on device k mod devices put
// every lineitem column (16 columns) and every customer column (8) of an
// 8-device array on a single device.
func TestEveryColumnStripedOverEveryDevice(t *testing.T) {
	tables := tpchTables(&tpch.Gen{SF: 0.01, GroupSize: 1024}) // customer: 2 groups, lineitem: 59
	for _, devices := range []int{8, 3} {
		store := zeroLatencyStore(devices)
		for _, mt := range tables {
			dt, err := store.WriteTable(mt)
			if err != nil {
				t.Fatal(err)
			}
			for col, def := range dt.Schema().Cols {
				perDev := make([]int, devices)
				for g := 0; g < dt.Groups(); g++ {
					perDev[dt.Chunk(g, col).Loc.Device()]++
				}
				used, least, most := 0, dt.Groups(), 0
				for _, n := range perDev {
					if n > 0 {
						used++
					}
					least, most = min(least, n), max(most, n)
				}
				if want := min(dt.Groups(), devices); used != want || most-least > 1 {
					t.Errorf("%d devices: %s.%s: %d chunks on %d devices (want %d), per device %v",
						devices, dt.Name(), def.Name, dt.Groups(), used, want, perDev)
				}
			}
		}
	}
}

// TestTPCHColumnsRoundTrip: all 61 TPC-H columns at SF 0.01, written to the
// array and scanned back, equal the MemTable they were written from — floats
// by their bits.
func TestTPCHColumnsRoundTrip(t *testing.T) {
	store := zeroLatencyStore(8)
	columns := 0
	for _, mt := range tpchTables(&tpch.Gen{SF: 0.01, GroupSize: 4096}) {
		dt, err := store.WriteTable(mt)
		if err != nil {
			t.Fatal(err)
		}
		schema := dt.Schema()
		proj := make([]int, schema.Len())
		for i := range proj {
			proj[i] = i
		}
		columns += len(proj)
		var cursor atomic.Int64
		r := dt.NewReader(proj, &cursor, 0)
		b := data.NewBatch(schema, 0)
		seen := int64(0)
		for {
			n, err := r.Next(b)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			lo := findGroup(t, mt, b, n) // groups arrive in completion order
			for c := range proj {
				want, got := mt.Column(c), &b.Cols[c]
				for i := 0; i < n; i++ {
					var same bool
					switch want.Type {
					case data.Float64:
						same = math.Float64bits(got.F[i]) == math.Float64bits(want.F[lo+i])
					case data.String:
						same = got.S[i] == want.S[lo+i]
					default:
						same = got.I[i] == want.I[lo+i]
					}
					if !same {
						t.Fatalf("%s.%s row %d differs after the round trip", mt.Name(), schema.Cols[c].Name, lo+i)
					}
				}
			}
			seen += int64(n)
		}
		if seen != mt.Rows() {
			t.Fatalf("%s: scanned %d rows of %d", mt.Name(), seen, mt.Rows())
		}
	}
	if columns != 61 {
		t.Fatalf("checked %d columns, TPC-H has 61", columns)
	}
}

// findGroup returns the first row of the group b holds: the group of b's
// size whose first rows match b's in every integer column (every table's
// key is one).
func findGroup(t *testing.T, mt *colstore.MemTable, b *data.Batch, n int) int {
	t.Helper()
groups:
	for g, lo := 0, 0; g < mt.Groups(); g, lo = g+1, lo+mt.GroupRows(g) {
		if mt.GroupRows(g) != n {
			continue
		}
		for c := range b.Cols {
			if want := mt.Column(c); want.Type == data.Int64 {
				for i := 0; i < min(n, 8); i++ {
					if b.Cols[c].I[i] != want.I[lo+i] {
						continue groups
					}
				}
			}
		}
		return lo
	}
	t.Fatalf("%s: scanned a group that matches none of the table's", mt.Name())
	return 0
}

// BenchmarkDiskScan scans Q1's seven lineitem columns (SF 0.01) from a
// zero-latency array with one reader: decode and reader bookkeeping, no
// device time. Bytes are the scanned values' (8 a number, a string's length).
func BenchmarkDiskScan(b *testing.B) {
	mt := (&tpch.Gen{SF: 0.01}).All()[tpch.Lineitem]
	dt, err := zeroLatencyStore(8).WriteTable(mt)
	if err != nil {
		b.Fatal(err)
	}
	cols := []string{"l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus", "l_shipdate"}
	proj := make([]int, len(cols))
	for i, c := range cols {
		proj[i] = dt.Schema().MustIndex(c)
	}
	batch := data.NewBatch(dt.Schema().Project(cols...), 0)
	b.SetBytes((5*8 + 2*1) * dt.Rows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cursor atomic.Int64
		r := dt.NewReader(proj, &cursor, 0)
		for {
			n, err := r.Next(batch)
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
	}
}

package data

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

// encodeRow encodes row r of b one field at a time, string bodies in field
// order after the fixed part: the row format written out independently of
// EncodeAll, which the tests check against it.
func encodeRow(rc *RowCodec, b *Batch, r int) []byte {
	n := rc.fixedEnd
	for f, t := range rc.types {
		if t == String {
			n += len(b.Cols[f].S[r])
		}
	}
	dst := make([]byte, n)
	varOff := rc.fixedEnd
	for f, t := range rc.types {
		c := &b.Cols[f]
		slot := dst[rc.nullBytes+8*f:]
		if c.Null != nil && c.Null[r] {
			dst[f/8] |= 1 << uint(f%8)
		}
		switch t {
		case Float64:
			binary.LittleEndian.PutUint64(slot, math.Float64bits(c.F[r]))
		case String:
			s := c.S[r]
			binary.LittleEndian.PutUint32(slot, uint32(varOff))
			binary.LittleEndian.PutUint32(slot[4:], uint32(len(s)))
			varOff += copy(dst[varOff:], s)
		default:
			binary.LittleEndian.PutUint64(slot, uint64(c.I[r]))
		}
	}
	return dst
}

func testSchema() *Schema {
	return NewSchema(
		ColumnDef{"id", Int64},
		ColumnDef{"price", Float64},
		ColumnDef{"name", String},
		ColumnDef{"ship", Date},
		ColumnDef{"flag", Bool},
	)
}

func fillRow(b *Batch, id int64, price float64, name string, ship int64, flag int64) {
	b.Cols[0].I = append(b.Cols[0].I, id)
	b.Cols[1].F = append(b.Cols[1].F, price)
	b.Cols[2].S = append(b.Cols[2].S, name)
	b.Cols[3].I = append(b.Cols[3].I, ship)
	b.Cols[4].I = append(b.Cols[4].I, flag)
	b.SetLen(b.Len() + 1)
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema()
	if s.Len() != 5 {
		t.Fatal("Len")
	}
	if s.Index("name") != 2 || s.Index("missing") != -1 {
		t.Fatal("Index")
	}
	p := s.Project("ship", "id")
	if p.Cols[0].Name != "ship" || p.Cols[1].Type != Int64 {
		t.Fatal("Project")
	}
	c := s.Concat(NewSchema(ColumnDef{"x", Float64}))
	if c.Len() != 6 || c.Cols[5].Name != "x" {
		t.Fatal("Concat")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustIndex on unknown column did not panic")
		}
	}()
	s.MustIndex("nope")
}

func TestDates(t *testing.T) {
	d := ParseDate("1995-03-15")
	if FormatDate(d) != "1995-03-15" {
		t.Fatalf("round trip: %s", FormatDate(d))
	}
	if Year(d) != 1995 {
		t.Fatalf("Year = %d", Year(d))
	}
	if ParseDate("1970-01-01") != 0 {
		t.Fatal("epoch not day 0")
	}
	if got := FormatDate(AddMonths(ParseDate("1995-12-15"), 3)); got != "1996-03-15" {
		t.Fatalf("AddMonths = %s", got)
	}
	if got := FormatDate(AddYears(ParseDate("1996-02-29"), 1)); got != "1997-03-01" {
		t.Fatalf("AddYears leap = %s", got)
	}
	if DateOf(1992, 1, 2) != ParseDate("1992-01-02") {
		t.Fatal("DateOf disagrees with ParseDate")
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	s := testSchema()
	rc := NewRowCodec(s.Types())
	b := NewBatch(s, 4)
	fillRow(b, 42, 3.25, "hello world", ParseDate("1998-09-02"), 1)
	fillRow(b, -7, -0.5, "", ParseDate("1970-01-01"), 0)

	out := NewBatch(s, 4)
	for r := 0; r < b.Len(); r++ {
		buf := encodeRow(rc, b, r)
		if rc.Int(buf, 0) != b.Cols[0].I[r] {
			t.Fatalf("row %d int mismatch", r)
		}
		if rc.Float(buf, 1) != b.Cols[1].F[r] {
			t.Fatalf("row %d float mismatch", r)
		}
		if rc.Str(buf, 2) != b.Cols[2].S[r] {
			t.Fatalf("row %d str mismatch: %q", r, rc.Str(buf, 2))
		}
		if rc.Int(buf, 3) != b.Cols[3].I[r] || rc.Int(buf, 4) != b.Cols[4].I[r] {
			t.Fatalf("row %d date/bool mismatch", r)
		}
		rc.AppendTo(out, buf)
	}
	if out.Len() != 2 || out.Cols[2].S[0] != "hello world" || out.Cols[0].I[1] != -7 {
		t.Fatal("AppendTo mismatch")
	}
}

func TestRowCodecNulls(t *testing.T) {
	s := NewSchema(ColumnDef{"k", Int64}, ColumnDef{"v", String})
	rc := NewRowCodec(s.Types())
	b := NewBatch(s, 2)
	b.Cols[0].I = []int64{1}
	b.Cols[0].Null = []bool{true}
	b.Cols[1].S = []string{"x"}
	b.SetLen(1)

	buf := encodeRow(rc, b, 0)
	if !rc.IsNull(buf, 0) || rc.IsNull(buf, 1) {
		t.Fatal("null bits wrong")
	}
	out := NewBatch(s, 1)
	rc.AppendTo(out, buf)
	if !out.IsNull(0, 0) || out.IsNull(1, 0) {
		t.Fatal("null round trip wrong")
	}
}

// TestAppendKey: the key copy holds the leading fields only, reads like the
// tuple for them, compares equal to it and hashes like it, and copies of
// several tuples sit back to back in one buffer.
func TestAppendKey(t *testing.T) {
	s := NewSchema(ColumnDef{"k1", String}, ColumnDef{"k2", Int64}, ColumnDef{"k3", String},
		ColumnDef{"v1", Float64}, ColumnDef{"v2", String})
	rc := NewRowCodec(s.Types())
	b := NewBatch(s, 3)
	b.Cols[0].S = []string{"alpha", "", "alpha"}
	b.Cols[1].I = []int64{7, -1, 7}
	b.Cols[1].Null = []bool{false, true, false}
	b.Cols[2].S = []string{"x", "a longer string key", "y"}
	b.Cols[3].F = []float64{1.5, 2.5, 3.5}
	b.Cols[4].S = []string{"payload", "another payload", ""}
	b.SetLen(3)

	keyFields := []int{0, 1, 2}
	var keys []byte
	var offs []int
	tuples := make([][]byte, b.Len())
	for r := range tuples {
		tuples[r] = encodeRow(rc, b, r)
		offs = append(offs, len(keys))
		keys = rc.AppendKey(keys, tuples[r], len(keyFields))
	}
	if want := 3*(1+3*8) + len("alpha"+"x"+"a longer string key"+"alpha"+"y"); len(keys) != want {
		t.Fatalf("three keys take %d bytes, want %d", len(keys), want)
	}
	for r, tuple := range tuples {
		key := keys[offs[r]:]
		if !rc.KeyEqual(key, tuple, keyFields) {
			t.Fatalf("key %d differs from its tuple", r)
		}
		if rc.HashTuple(key, keyFields) != rc.HashTuple(tuple, keyFields) {
			t.Fatalf("key %d hashes differently from its tuple", r)
		}
		if got := string(rc.StrBytes(key, 2)); got != b.Cols[2].S[r] {
			t.Fatalf("key %d field 2 = %q, want %q", r, got, b.Cols[2].S[r])
		}
		if rc.IsNull(key, 1) != b.Cols[1].Null[r] {
			t.Fatalf("key %d lost its NULL mark", r)
		}
		for o := range tuples {
			if o != r && rc.KeyEqual(key, tuples[o], keyFields) {
				t.Fatalf("key %d equals tuple %d", r, o)
			}
		}
	}
}

func TestHashConsistency(t *testing.T) {
	s := NewSchema(ColumnDef{"a", Int64}, ColumnDef{"b", String}, ColumnDef{"c", Float64})
	rc := NewRowCodec(s.Types())
	b := NewBatch(s, 2)
	b.Cols[0].I = []int64{7, 7}
	b.Cols[1].S = []string{"key", "key"}
	b.Cols[2].F = []float64{1.5, 2.5}
	b.SetLen(2)

	keys := []int{0, 1}
	h0 := HashRow(b, keys, 0)
	if h0 != HashRow(b, keys, 1) {
		t.Fatal("equal keys hash unequal")
	}
	buf := encodeRow(rc, b, 0)
	if rc.HashTuple(buf, keys) != h0 {
		t.Fatal("tuple hash differs from row hash")
	}
	if !rc.KeyEqualRow(buf, keys, b, keys, 1) {
		t.Fatal("KeyEqualRow false on equal keys")
	}
	buf2 := encodeRow(rc, b, 1)
	if !rc.KeyEqual(buf, buf2, keys) {
		t.Fatal("KeyEqual false on equal keys")
	}
	if rc.KeyEqual(buf, buf2, []int{2}) {
		t.Fatal("KeyEqual true on differing float field")
	}
}

func TestHashRowNullGroupsTogether(t *testing.T) {
	s := NewSchema(ColumnDef{"k", Int64})
	b := NewBatch(s, 2)
	b.Cols[0].I = []int64{5, 9}
	b.Cols[0].Null = []bool{true, true}
	b.SetLen(2)
	if HashRow(b, []int{0}, 0) != HashRow(b, []int{0}, 1) {
		t.Fatal("NULL keys must hash equal for grouping")
	}
}

func TestRowCodecQuick(t *testing.T) {
	s := NewSchema(ColumnDef{"i", Int64}, ColumnDef{"f", Float64}, ColumnDef{"s1", String}, ColumnDef{"s2", String})
	rc := NewRowCodec(s.Types())
	f := func(i int64, fl float64, s1, s2 string) bool {
		if len(s1) > 5000 {
			s1 = s1[:5000]
		}
		if len(s2) > 5000 {
			s2 = s2[:5000]
		}
		b := NewBatch(s, 1)
		b.Cols[0].I = []int64{i}
		b.Cols[1].F = []float64{fl}
		b.Cols[2].S = []string{s1}
		b.Cols[3].S = []string{s2}
		b.SetLen(1)
		buf := encodeRow(rc, b, 0)
		return rc.Int(buf, 0) == i && rc.Float(buf, 1) == fl &&
			rc.Str(buf, 2) == s1 && rc.Str(buf, 3) == s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendRowFrom(t *testing.T) {
	s := testSchema()
	src := NewBatch(s, 2)
	fillRow(src, 1, 1.0, "a", 10, 0)
	fillRow(src, 2, 2.0, "b", 20, 1)
	dst := NewBatch(s, 2)
	dst.AppendRowFrom(src, 1)
	if dst.Len() != 1 || dst.Cols[0].I[0] != 2 || dst.Cols[2].S[0] != "b" {
		t.Fatal("AppendRowFrom copied wrong row")
	}
}

func TestBatchReset(t *testing.T) {
	s := testSchema()
	b := NewBatch(s, 2)
	fillRow(b, 1, 1.0, "a", 10, 0)
	b.Reset()
	if b.Len() != 0 || len(b.Cols[0].I) != 0 || len(b.Cols[2].S) != 0 {
		t.Fatal("Reset left data")
	}
}

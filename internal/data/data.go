// Package data defines the engine's data model: column types, schemas,
// columnar batches (the unit of vectorized processing within a morsel), and
// the row-wise tuple codec used when operators materialize data through
// Umami (paper §4.4 "Why general-purpose schemes": table data is columnar,
// materialized operator data is row-wise so hash tables can point at
// tuples).
package data

import (
	"fmt"
	"time"
)

// Type is a column type.
type Type uint8

// Column types. Dates are stored as days since the Unix epoch; Bool columns
// store 0/1 in the integer representation.
const (
	Int64 Type = iota
	Float64
	String
	Date
	Bool
)

// Fixed reports whether the type has a fixed-width 8-byte representation.
func (t Type) Fixed() bool { return t != String }

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Date:
		return "date"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// ColumnDef names and types one column of a schema.
type ColumnDef struct {
	Name string
	Type Type
}

// Schema describes the columns of a batch or table.
type Schema struct {
	Cols []ColumnDef
}

// NewSchema builds a schema from column definitions.
func NewSchema(cols ...ColumnDef) *Schema { return &Schema{Cols: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustIndex is Index but panics on unknown names — schema references in
// hand-built plans are programming errors, not runtime conditions.
func (s *Schema) MustIndex(name string) int {
	i := s.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("data: unknown column %q", name))
	}
	return i
}

// Types returns the column types in order.
func (s *Schema) Types() []Type {
	out := make([]Type, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Type
	}
	return out
}

// Project returns a schema of the named columns.
func (s *Schema) Project(names ...string) *Schema {
	out := &Schema{Cols: make([]ColumnDef, len(names))}
	for i, n := range names {
		out.Cols[i] = s.Cols[s.MustIndex(n)]
	}
	return out
}

// Concat returns a schema with other's columns appended.
func (s *Schema) Concat(other *Schema) *Schema {
	out := &Schema{Cols: make([]ColumnDef, 0, len(s.Cols)+len(other.Cols))}
	out.Cols = append(out.Cols, s.Cols...)
	out.Cols = append(out.Cols, other.Cols...)
	return out
}

// Column is one column of a batch. Exactly one of I, F, S is populated
// depending on the type; Null, when non-nil, marks NULL rows (produced only
// by outer joins — base TPC-H data is NOT NULL throughout).
type Column struct {
	Type Type
	I    []int64
	F    []float64
	S    []string
	Null []bool
}

// Batch is a columnar chunk of rows, the engine's unit of processing
// within a morsel.
type Batch struct {
	Schema *Schema
	Cols   []Column
	// Sel, when non-nil, is a selection vector: the live rows of the batch
	// are Sel[0], Sel[1], ... (physical row indices into the columns, in
	// ascending order). Filters produce selection vectors instead of
	// compacting columns, so a scan batch survives predicates without a
	// single copy. Consumers iterate Rows()/Row(i) or pass Sel to the
	// vectorized kernels; Reset and Flatten clear it.
	Sel []int32
	n   int
	// pool, when non-nil, is the BatchPool this batch was leased from;
	// Release returns it there. Cleared on Put so a pooled batch cannot be
	// double-released through a stale reference.
	pool *BatchPool
	// borrowed marks the column slices as views of storage the batch does
	// not own (see Borrow).
	borrowed bool
}

// NewBatch returns an empty batch with capacity hint cap.
func NewBatch(schema *Schema, capHint int) *Batch {
	b := &Batch{Schema: schema, Cols: make([]Column, schema.Len())}
	for i, c := range schema.Cols {
		b.Cols[i].Type = c.Type
		switch c.Type {
		case Float64:
			b.Cols[i].F = make([]float64, 0, capHint)
		case String:
			b.Cols[i].S = make([]string, 0, capHint)
		default:
			b.Cols[i].I = make([]int64, 0, capHint)
		}
	}
	return b
}

// Len returns the number of physical rows (ignoring any selection vector).
func (b *Batch) Len() int { return b.n }

// SetLen declares the row count after columns were filled directly.
func (b *Batch) SetLen(n int) { b.n = n }

// Rows returns the number of live rows: the selection vector's length when
// one is set, the physical row count otherwise.
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// Row maps live row i to its physical row index.
func (b *Batch) Row(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// Reset clears all rows and the selection vector, keeping capacity — except
// that borrowed columns are dropped, not truncated: a truncated view keeps
// the owner's backing array, and the next append would write through it.
func (b *Batch) Reset() {
	for i := range b.Cols {
		c := &b.Cols[i]
		if b.borrowed {
			c.I, c.F, c.S = nil, nil, nil
		} else {
			c.I = c.I[:0]
			c.F = c.F[:0]
			c.S = c.S[:0]
		}
		c.Null = nil
	}
	b.borrowed = false
	b.Sel = nil
	b.n = 0
}

// Borrow declares that the column slices now alias storage the batch does
// not own (an in-memory table handing out views of its columns). The mark
// lasts until the next Reset, which every refill and BatchPool.Put go
// through.
func (b *Batch) Borrow() { b.borrowed = true }

// Flatten materializes the selection vector by compacting the columns in
// place (ascending Sel makes the in-place shift safe) and clearing Sel.
// It must not be called on batches that alias table storage (in-memory
// scans hand out views): compacting would corrupt the table. Operators
// therefore consume Sel via Rows()/Row(i) instead; Flatten exists for
// owned batches and tests.
func (b *Batch) Flatten() {
	if b.Sel == nil {
		return
	}
	sel := b.Sel
	for i := range b.Cols {
		c := &b.Cols[i]
		switch {
		case c.F != nil:
			for j, r := range sel {
				c.F[j] = c.F[r]
			}
			c.F = c.F[:len(sel)]
		case c.S != nil:
			for j, r := range sel {
				c.S[j] = c.S[r]
			}
			c.S = c.S[:len(sel)]
		default:
			for j, r := range sel {
				c.I[j] = c.I[r]
			}
			c.I = c.I[:len(sel)]
		}
		if c.Null != nil {
			for j, r := range sel {
				c.Null[j] = c.Null[r]
			}
			c.Null = c.Null[:len(sel)]
		}
	}
	b.n = len(sel)
	b.Sel = nil
}

// IsNull reports whether column col is NULL at row.
func (b *Batch) IsNull(col, row int) bool {
	n := b.Cols[col].Null
	return n != nil && n[row]
}

// AppendRowFrom copies row r of src (which must share the schema layout)
// onto b.
func (b *Batch) AppendRowFrom(src *Batch, r int) {
	for i := range b.Cols {
		dst, s := &b.Cols[i], &src.Cols[i]
		switch dst.Type {
		case Float64:
			dst.F = append(dst.F, s.F[r])
		case String:
			dst.S = append(dst.S, s.S[r])
		default:
			dst.I = append(dst.I, s.I[r])
		}
		if s.Null != nil {
			if dst.Null == nil {
				dst.Null = make([]bool, b.n)
			}
			dst.Null = append(dst.Null, s.Null[r])
		} else if dst.Null != nil {
			dst.Null = append(dst.Null, false)
		}
	}
	b.n++
}

// Date helpers.

var unixEpoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// ParseDate converts "YYYY-MM-DD" into days since the Unix epoch. It panics
// on malformed input: date literals appear only in hand-built plans.
func ParseDate(s string) int64 {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		panic(fmt.Sprintf("data: bad date literal %q: %v", s, err))
	}
	return int64(t.Sub(unixEpoch) / (24 * time.Hour))
}

// DateOf builds a day number from components.
func DateOf(year, month, day int) int64 {
	t := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
	return int64(t.Sub(unixEpoch) / (24 * time.Hour))
}

// FormatDate renders a day number as "YYYY-MM-DD".
func FormatDate(days int64) string {
	return unixEpoch.AddDate(0, 0, int(days)).Format("2006-01-02")
}

// Year extracts the calendar year of a day number.
func Year(days int64) int64 {
	return int64(unixEpoch.AddDate(0, 0, int(days)).Year())
}

// AddMonths shifts a day number by whole months (SQL interval arithmetic).
func AddMonths(days int64, months int) int64 {
	t := unixEpoch.AddDate(0, 0, int(days)).AddDate(0, months, 0)
	return int64(t.Sub(unixEpoch) / (24 * time.Hour))
}

// AddYears shifts a day number by whole years.
func AddYears(days int64, years int) int64 {
	return AddMonths(days, 12*years)
}

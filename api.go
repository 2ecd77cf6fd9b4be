package spilly

import (
	"fmt"
	"strings"

	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/exec"
)

// This file re-exports the plan-building surface so that library users can
// compose queries without reaching into internal packages.

// Data model.
type (
	// Schema describes the columns of a table or batch.
	Schema = data.Schema
	// ColumnDef is one column definition.
	ColumnDef = data.ColumnDef
	// Type is a column type.
	Type = data.Type
	// Batch is a columnar chunk of rows.
	Batch = data.Batch
	// MemTable is an in-memory columnar table.
	MemTable = colstore.MemTable
)

// Column types.
const (
	Int64   = data.Int64
	Float64 = data.Float64
	String  = data.String
	Date    = data.Date
	Bool    = data.Bool
)

// NewSchema builds a schema.
var NewSchema = data.NewSchema

// NewMemTable creates an empty in-memory table (groupSize 0 = default).
var NewMemTable = colstore.NewMemTable

// NewBatch creates an empty batch.
var NewBatch = data.NewBatch

// ParseDate converts "YYYY-MM-DD" to the engine's day-number representation.
var ParseDate = data.ParseDate

// FormatDate renders a day number.
var FormatDate = data.FormatDate

// Plan nodes.
type (
	// Node is a physical plan node.
	Node = exec.Node
	// ScanNode scans a table with projection and pushed-down filter.
	ScanNode = exec.Scan
	// JoinNode is the unified hash join.
	JoinNode = exec.Join
	// AggNode is the unified hash aggregation.
	AggNode = exec.Agg
	// FilterNode filters any stream.
	FilterNode = exec.FilterNode
	// AggSpec describes one aggregate.
	AggSpec = exec.AggSpec
	// SortKey orders by one column.
	SortKey = exec.SortKey
	// JoinKind selects join semantics.
	JoinKind = exec.JoinKind
	// Expr is a compiled scalar expression.
	Expr = exec.Expr
	// WindowNode is the hash-based window operator (§4.7).
	WindowNode = exec.Window
	// WindowSpec describes one window function.
	WindowSpec = exec.WindowSpec
	// ExtSortNode orders (and optionally limits) its input: the external
	// (spilling) merge sort, the sorting direction the paper names as
	// future work (§4.7).
	ExtSortNode = exec.ExtSort
)

// Join kinds.
const (
	InnerJoin = exec.Inner
	SemiJoin  = exec.Semi
	AntiJoin  = exec.Anti
	OuterJoin = exec.Outer
)

// Aggregate functions.
const (
	Sum       = exec.Sum
	Count     = exec.Count
	CountStar = exec.CountStar
	Min       = exec.Min
	Max       = exec.Max
	Avg       = exec.Avg
)

// Window functions and frames.
const (
	WRowNumber   = exec.WRowNumber
	WRank        = exec.WRank
	WSum         = exec.WSum
	WCount       = exec.WCount
	WAvg         = exec.WAvg
	WMin         = exec.WMin
	WMax         = exec.WMax
	FrameAll     = exec.FrameAll
	FrameRunning = exec.FrameRunning
	FrameRows    = exec.FrameRows
)

// NewWindow builds a window node over partition keys, an intra-partition
// order, and a list of window functions.
var NewWindow = exec.NewWindow

// Plan constructors.
var (
	// NewScan scans the named columns of a table (all when none given).
	NewScan = exec.NewScan
	// NewJoin builds a unified hash join.
	NewJoin = exec.NewJoin
	// NewAgg builds a unified hash aggregation.
	NewAgg = exec.NewAgg
	// NewProject computes expressions over a child node.
	NewProject = exec.NewProject
)

// Expression constructors.
var (
	Col        = exec.Col
	ConstInt   = exec.ConstInt
	ConstFloat = exec.ConstFloat
	ConstStr   = exec.ConstStr
	ConstDate  = exec.ConstDate
	Add        = exec.Add
	Sub        = exec.Sub
	Mul        = exec.Mul
	Div        = exec.Div
	Cmp        = exec.Cmp
	And        = exec.And
	Or         = exec.Or
	Not        = exec.Not
	Like       = exec.Like
	NotLike    = exec.NotLike
	InStr      = exec.InStr
	InInt      = exec.InInt
	Case       = exec.Case
	YearOf     = exec.YearOf
	Substr     = exec.Substr
)

// FormatBatch renders up to maxRows rows of a batch as an aligned ASCII
// table.
func FormatBatch(b *Batch, maxRows int) string {
	if b == nil {
		return "(nil)"
	}
	n := b.Len()
	truncated := false
	if maxRows > 0 && n > maxRows {
		n = maxRows
		truncated = true
	}
	cols := len(b.Cols)
	cells := make([][]string, n+1)
	cells[0] = make([]string, cols)
	for c, cd := range b.Schema.Cols {
		cells[0][c] = cd.Name
	}
	for r := 0; r < n; r++ {
		row := make([]string, cols)
		for c := range b.Cols {
			col := &b.Cols[c]
			switch {
			case col.Null != nil && col.Null[r]:
				row[c] = "NULL"
			case col.Type == data.Float64:
				row[c] = fmt.Sprintf("%.2f", col.F[r])
			case col.Type == data.String:
				row[c] = col.S[r]
			case col.Type == data.Date:
				row[c] = data.FormatDate(col.I[r])
			default:
				row[c] = fmt.Sprintf("%d", col.I[r])
			}
		}
		cells[r+1] = row
	}
	widths := make([]int, cols)
	for _, row := range cells {
		for c, s := range row {
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	var sb strings.Builder
	for i, row := range cells {
		for c, s := range row {
			if c > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(s)
			sb.WriteString(strings.Repeat(" ", widths[c]-len(s)))
		}
		sb.WriteByte('\n')
		if i == 0 {
			for c := range row {
				if c > 0 {
					sb.WriteString("-+-")
				}
				sb.WriteString(strings.Repeat("-", widths[c]))
			}
			sb.WriteByte('\n')
		}
	}
	if truncated {
		fmt.Fprintf(&sb, "... (%d more rows)\n", b.Len()-n)
	}
	return sb.String()
}

// Quickstart: open an engine, register a table, and run a plan built with
// the public API. No TPC-H, no spilling — the minimal end-to-end flow.
package main

import (
	"fmt"
	"log"

	spilly "github.com/spilly-db/spilly"
)

func main() {
	eng, err := spilly.Open(spilly.Config{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}

	// A small sales table.
	schema := spilly.NewSchema(
		spilly.ColumnDef{Name: "region", Type: spilly.String},
		spilly.ColumnDef{Name: "day", Type: spilly.Date},
		spilly.ColumnDef{Name: "amount", Type: spilly.Float64},
	)
	sales := spilly.NewMemTable("sales", schema, 0)
	batch := spilly.NewBatch(schema, 8)
	regions := []string{"EMEA", "APAC", "AMER", "EMEA", "APAC", "AMER", "EMEA", "AMER"}
	days := []string{"2024-01-02", "2024-01-02", "2024-01-03", "2024-01-04",
		"2024-01-05", "2024-01-05", "2024-01-08", "2024-01-09"}
	amounts := []float64{120.5, 80, 240, 60.25, 310, 95, 42, 150}
	for i := range regions {
		batch.Cols[0].S = append(batch.Cols[0].S, regions[i])
		batch.Cols[1].I = append(batch.Cols[1].I, spilly.ParseDate(days[i]))
		batch.Cols[2].F = append(batch.Cols[2].F, amounts[i])
	}
	batch.SetLen(len(regions))
	sales.Append(batch)
	eng.RegisterTable(sales)

	// SELECT region, sum(amount), count(*) FROM sales
	// WHERE day >= '2024-01-03' GROUP BY region ORDER BY sum DESC.
	tbl, err := eng.Table("sales")
	if err != nil {
		log.Fatal(err)
	}
	scan := spilly.NewScan(tbl)
	scan.Filter = spilly.Cmp(">=", spilly.Col(scan.Schema(), "day"), spilly.ConstDate("2024-01-03"))
	agg := spilly.NewAgg(scan, []string{"region"}, []spilly.AggSpec{
		{Func: spilly.Sum, Col: "amount", As: "total"},
		{Func: spilly.CountStar, As: "orders"},
	})
	plan := &spilly.ExtSortNode{Child: agg, Keys: []spilly.SortKey{{Col: "total", Desc: true}}}

	res, err := eng.Run(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Table())
	fmt.Printf("scanned %d rows in %v\n", res.Stats.ScannedRows, res.Stats.Duration)
}

package experiments

import (
	"context"
	"fmt"

	"github.com/signguard/signguard/internal/campaign"
)

// Table1Spec declares the "Table I" grid for one dataset: every
// aggregation rule under every attack column at the default Byzantine
// fraction, IID data.
func Table1Spec(ds DatasetSpec, p Params) campaign.Spec {
	spec := campaign.Spec{Name: "table1-" + ds.Key}
	for _, rule := range PaperRules() {
		for _, att := range tableAttacks {
			spec.Cells = append(spec.Cells, campaign.NewCell(ds.Key, rule.Name, att, p))
		}
	}
	return spec
}

// Table1 reproduces "Table I: comparison of defenses under various model
// poisoning attacks" for one dataset: the best test accuracy achieved by
// each of the ten aggregation rules under each of the nine attack columns.
func Table1(e *campaign.Engine, ds DatasetSpec, p Params) (*Table, error) {
	rep, err := e.Run(context.Background(), Table1Spec(ds, p))
	if err != nil {
		return nil, err
	}
	return renderTable1(ds, rep.Results), nil
}

func renderTable1(ds DatasetSpec, results []*campaign.CellResult) *Table {
	t := &Table{Title: fmt.Sprintf("Table I — %s (best test accuracy %%)", ds.Title)}
	t.Header = append([]string{"GAR"}, tableAttacks...)
	cur := cursor{results: results}
	for _, rule := range PaperRules() {
		row := []string{rule.Name}
		for range tableAttacks {
			row = append(row, fmtAcc(cur.next().BestAccuracy))
		}
		t.AddRow(row...)
	}
	return t
}

package experiments

import (
	"fmt"

	"github.com/signguard/signguard/internal/campaign"
)

// tableIRules are the paper's ten Table I row labels, in row order. The
// related-work families beyond the table (FLTrust, FLAME, MoM) are
// evaluated by the serverlearn experiment instead, so Table I keeps the
// paper's exact shape.
var tableIRules = []string{
	"Mean", "TrMean", "Median", "GeoMed", "Multi-Krum", "Bulyan",
	"DnC", "SignGuard", "SignGuard-Sim", "SignGuard-Dist",
}

// tableAttacks names the nine attack columns of Table I, in its column
// order. The internal/attack catalog owns the constructors and the
// campaign registry registers every catalog entry; this package only picks
// names.
var tableAttacks = []string{
	"NoAttack", "Random", "Noise", "Label-flip", "ByzMean", "Sign-flip", "LIE", "Min-Max", "Min-Sum",
}

// table1Spec declares the "Table I" grid: per dataset, every aggregation
// rule under every attack column at the default Byzantine fraction, IID
// data.
func table1Spec(p Params) campaign.Spec {
	spec := campaign.Spec{Name: "table1"}
	for _, ds := range Datasets() {
		for _, rule := range tableIRules {
			for _, att := range tableAttacks {
				spec.Cells = append(spec.Cells, campaign.NewCell(ds.Key, rule, att, p))
			}
		}
	}
	return spec
}

// renderTable1 reproduces "Table I: comparison of defenses under various
// model poisoning attacks": the best test accuracy of each of the ten
// aggregation rules under each of the nine attack columns, one table per
// dataset present in the results, in Datasets() order.
func renderTable1(results []*campaign.CellResult) ([]*Table, error) {
	var tables []*Table
	grouped := 0
	for _, ds := range Datasets() {
		var group []*campaign.CellResult
		for _, r := range results {
			if r.Cell.Dataset == ds.Key {
				group = append(group, r)
			}
		}
		if len(group) == 0 {
			continue
		}
		grouped += len(group)
		t := &Table{Title: fmt.Sprintf("Table I — %s (best test accuracy %%)", ds.Title)}
		t.Header = append([]string{"GAR"}, tableAttacks...)
		cur := cursor{results: group}
		for _, rule := range tableIRules {
			row := []string{rule}
			for range tableAttacks {
				row = append(row, fmtAcc(cur.next().BestAccuracy))
			}
			t.AddRow(row...)
		}
		done, err := cur.tables(t)
		if err != nil {
			return nil, err
		}
		tables = append(tables, done...)
	}
	if grouped != len(results) {
		return nil, fmt.Errorf("experiments: %d of %d Table I results name no known dataset", len(results)-grouped, len(results))
	}
	return tables, nil
}

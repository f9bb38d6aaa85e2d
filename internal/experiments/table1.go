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
// campaign registry resolves names through it; this package only picks
// names.
var tableAttacks = []string{
	"NoAttack", "Random", "Noise", "Label-flip", "ByzMean", "Sign-flip", "LIE", "Min-Max", "Min-Sum",
}

// table1 reproduces "Table I: comparison of defenses under various model
// poisoning attacks": per dataset, in Datasets() order, the best test
// accuracy of each of the ten aggregation rules under each of the nine
// attack columns, at the default Byzantine fraction on IID data.
func table1(p Params, w *walk) {
	for _, ds := range Datasets().Values() {
		t := &Table{Title: fmt.Sprintf("Table I — %s (best test accuracy %%)", ds.Title)}
		t.Header = append([]string{"GAR"}, tableAttacks...)
		for _, rule := range tableIRules {
			row := []string{rule}
			for _, att := range tableAttacks {
				row = append(row, fmtAcc(w.cell(campaign.NewCell(ds.Key, rule, att, p)).BestAccuracy))
			}
			t.AddRow(row...)
		}
		w.add(t)
	}
}

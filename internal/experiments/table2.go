package experiments

import (
	"fmt"

	"github.com/signguard/signguard/internal/campaign"
)

// table2Variants / table2Attacks are the paper's Table II axes: the three
// SignGuard variants under the five strong attacks, on the CIFAR analog.
var (
	table2Variants = []string{"SignGuard", "SignGuard-Sim", "SignGuard-Dist"}
	table2Attacks  = []string{"ByzMean", "Sign-flip", "LIE", "Min-Max", "Min-Sum"}
)

// table2Spec declares the Table II grid (attack-major, variant-minor).
func table2Spec(p Params) campaign.Spec {
	spec := campaign.Spec{Name: "table2"}
	for _, att := range table2Attacks {
		for _, v := range table2Variants {
			spec.Cells = append(spec.Cells, campaign.NewCell("cifar", v, att, p))
		}
	}
	return spec
}

// renderTable2 reproduces "Table II: selected rate of honest and malicious
// gradients" — the average fraction of honest (H) and malicious (M)
// gradients that each SignGuard variant admitted into the trusted set.
func renderTable2(results []*campaign.CellResult) ([]*Table, error) {
	t := &Table{Title: "Table II — selected rate of honest (H) and malicious (M) gradients"}
	t.Header = []string{"Attack"}
	for _, v := range table2Variants {
		t.Header = append(t.Header, v+" H", v+" M")
	}
	cur := cursor{results: results}
	for _, att := range table2Attacks {
		row := []string{att}
		for _, v := range table2Variants {
			// Past the end of a narrowed grid the cursor returns a result
			// with no Key; cur.tables then refuses the count instead.
			r := cur.next()
			if r.Key != "" && !r.HasSelection {
				return nil, fmt.Errorf("experiments: %s reported no selection under %s", v, att)
			}
			row = append(row, fmtRate(r.SelHonest), fmtRate(r.SelMalicious))
		}
		t.AddRow(row...)
	}
	return cur.tables(t)
}

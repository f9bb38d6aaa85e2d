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

// table2 reproduces "Table II: selected rate of honest and malicious
// gradients" — the average fraction of honest (H) and malicious (M)
// gradients that each SignGuard variant admitted into the trusted set,
// attack-major.
func table2(p Params, w *walk) {
	t := &Table{Title: "Table II — selected rate of honest (H) and malicious (M) gradients"}
	t.Header = []string{"Attack"}
	for _, v := range table2Variants {
		t.Header = append(t.Header, v+" H", v+" M")
	}
	for _, att := range table2Attacks {
		row := []string{att}
		for _, v := range table2Variants {
			r := w.cell(campaign.NewCell("cifar", v, att, p))
			if !r.HasSelection {
				w.fail(fmt.Errorf("experiments: %s reported no selection under %s", v, att))
			}
			row = append(row, fmtRate(r.SelHonest), fmtRate(r.SelMalicious))
		}
		t.AddRow(row...)
	}
	w.add(t)
}

package experiments

import (
	"fmt"

	"github.com/signguard/signguard/internal/campaign"
)

// Fig. 4 axes: five defenses × five strong attacks × four Byzantine
// fractions, on the Fashion- and CIFAR-analogs, reported as attack impact
// (Definition 3) against a no-attack/no-defense baseline.
var (
	fig4Datasets  = []string{"fashion", "cifar"}
	fig4Fractions = []float64{0.1, 0.2, 0.3, 0.4}
	fig4Defenses  = []string{"Median", "TrMean", "Multi-Krum", "DnC", "SignGuard-Sim"}
	fig4Attacks   = []string{"ByzMean", "Sign-flip", "LIE", "Min-Max", "Min-Sum"}
)

// fig4 reproduces "Fig. 4: accuracy drop comparison under various attacks
// and different percentage of Byzantine clients": per dataset, the attack
// impact (Definition 3 — accuracy drop relative to the first cell, the
// no-attack/no-defense baseline) of each defense × attack as the Byzantine
// fraction sweeps 10–40%.
func fig4(p Params, w *walk) {
	for _, key := range fig4Datasets {
		base := campaign.NewCell(key, "Mean", "NoAttack", p)
		base.NumByz = 0
		baseline := w.cell(base).BestAccuracy

		t := &Table{Title: fmt.Sprintf("Fig. 4 — attack impact (%%) vs Byzantine fraction, %s (baseline %.2f%%)", datasetTitle(key), baseline)}
		t.Header = []string{"Defense", "Attack"}
		for _, f := range fig4Fractions {
			t.Header = append(t.Header, fmt.Sprintf("%d%%", int(f*100)))
		}
		for _, def := range fig4Defenses {
			for _, att := range fig4Attacks {
				row := []string{def, att}
				for _, frac := range fig4Fractions {
					c := campaign.NewCell(key, def, att, p)
					c.NumByz = int(frac * float64(p.Clients))
					impact := baseline - w.cell(c).BestAccuracy
					if impact < 0 {
						impact = 0
					}
					row = append(row, fmtAcc(impact))
				}
				t.AddRow(row...)
			}
		}
		w.add(t)
	}
}

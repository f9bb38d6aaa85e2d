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

// fig4Spec declares the Fig. 4 grid. Per dataset, the first cell is the
// Definition 3 baseline (no attack, no defense); the rest sweep
// defense × attack × fraction.
func fig4Spec(p Params) campaign.Spec {
	spec := campaign.Spec{Name: "fig4"}
	for _, key := range fig4Datasets {
		base := campaign.NewCell(key, "Mean", "NoAttack", p)
		base.NumByz = 0
		spec.Cells = append(spec.Cells, base)
		for _, def := range fig4Defenses {
			for _, att := range fig4Attacks {
				for _, frac := range fig4Fractions {
					c := campaign.NewCell(key, def, att, p)
					c.NumByz = int(frac * float64(p.Clients))
					spec.Cells = append(spec.Cells, c)
				}
			}
		}
	}
	return spec
}

// renderFig4 reproduces "Fig. 4: accuracy drop comparison under various attacks
// and different percentage of Byzantine clients": the attack impact
// (Definition 3 — accuracy drop relative to the no-attack/no-defense
// baseline) as the Byzantine fraction sweeps 10–40%.
func renderFig4(results []*campaign.CellResult) ([]*Table, error) {
	cur := cursor{results: results}
	var tables []*Table
	for _, key := range fig4Datasets {
		ds, err := DatasetByKey(key)
		if err != nil {
			return nil, err
		}
		baseline := cur.next().BestAccuracy

		t := &Table{Title: fmt.Sprintf("Fig. 4 — attack impact (%%) vs Byzantine fraction, %s (baseline %.2f%%)", ds.Title, baseline)}
		t.Header = []string{"Defense", "Attack"}
		for _, f := range fig4Fractions {
			t.Header = append(t.Header, fmt.Sprintf("%d%%", int(f*100)))
		}
		for _, def := range fig4Defenses {
			for _, att := range fig4Attacks {
				row := []string{def, att}
				for range fig4Fractions {
					impact := baseline - cur.next().BestAccuracy
					if impact < 0 {
						impact = 0
					}
					row = append(row, fmtAcc(impact))
				}
				t.AddRow(row...)
			}
		}
		tables = append(tables, t)
	}
	return cur.tables(tables...)
}

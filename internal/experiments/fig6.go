package experiments

import (
	"fmt"

	"github.com/signguard/signguard/internal/campaign"
)

// Fig. 6 axes: five defenses under three attacks across non-IID skew
// levels, on the Fashion- and CIFAR-analogs.
var (
	fig6Datasets = []string{"fashion", "cifar"}
	fig6Skews    = []float64{0.3, 0.5, 0.8}
	fig6Defenses = []string{"TrMean", "Multi-Krum", "Bulyan", "DnC", "SignGuard-Sim"}
	fig6Attacks  = []string{"Sign-flip", "LIE", "ByzMean"}
)

// fig6Spec declares the Fig. 6 grid over the paper's synthetic non-IID
// partitions (2 shards per client).
func fig6Spec(p Params) campaign.Spec {
	spec := campaign.Spec{Name: "fig6"}
	for _, key := range fig6Datasets {
		for _, att := range fig6Attacks {
			for _, def := range fig6Defenses {
				for _, s := range fig6Skews {
					c := campaign.NewCell(key, def, att, p)
					c.NonIIDS = s
					c.NonIIDShards = 2
					spec.Cells = append(spec.Cells, c)
				}
			}
		}
	}
	return spec
}

// renderFig6 reproduces "Fig. 6: model accuracy comparison under various attacks
// and different degrees of non-IID": best accuracy with skew levels
// s ∈ {0.3, 0.5, 0.8}.
func renderFig6(results []*campaign.CellResult) ([]*Table, error) {
	cur := cursor{results: results}
	var tables []*Table
	for _, key := range fig6Datasets {
		ds, err := DatasetByKey(key)
		if err != nil {
			return nil, err
		}
		t := &Table{Title: fmt.Sprintf("Fig. 6 — non-IID best accuracy (%%), %s", ds.Title)}
		t.Header = []string{"Attack", "Defense"}
		for _, s := range fig6Skews {
			t.Header = append(t.Header, fmt.Sprintf("s=%.1f", s))
		}
		for _, att := range fig6Attacks {
			for _, def := range fig6Defenses {
				row := []string{att, def}
				for range fig6Skews {
					row = append(row, fmtAcc(cur.next().BestAccuracy))
				}
				t.AddRow(row...)
			}
		}
		tables = append(tables, t)
	}
	return cur.tables(tables...)
}

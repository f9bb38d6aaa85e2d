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

// fig6 reproduces "Fig. 6: model accuracy comparison under various attacks
// and different degrees of non-IID": per dataset, the best accuracy of each
// attack × defense over the paper's synthetic non-IID partitions (2 shards
// per client) at skew levels s ∈ {0.3, 0.5, 0.8}.
func fig6(p Params, w *walk) {
	for _, key := range fig6Datasets {
		t := &Table{Title: fmt.Sprintf("Fig. 6 — non-IID best accuracy (%%), %s", datasetTitle(key))}
		t.Header = []string{"Attack", "Defense"}
		for _, s := range fig6Skews {
			t.Header = append(t.Header, fmt.Sprintf("s=%.1f", s))
		}
		for _, att := range fig6Attacks {
			for _, def := range fig6Defenses {
				row := []string{att, def}
				for _, s := range fig6Skews {
					c := campaign.NewCell(key, def, att, p)
					c.NonIIDS = s
					c.NonIIDShards = 2
					row = append(row, fmtAcc(w.cell(c).BestAccuracy))
				}
				t.AddRow(row...)
			}
		}
		w.add(t)
	}
}

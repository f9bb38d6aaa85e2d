package experiments

import (
	"fmt"

	"github.com/signguard/signguard/internal/campaign"
)

// Fig. 5 axes: the strong defenses under a time-varying attack, with a
// clean undefended baseline curve, on the Fashion- and CIFAR-analogs.
var (
	fig5Datasets = []string{"fashion", "cifar"}
	fig5Defenses = []string{"Multi-Krum", "Bulyan", "DnC", "SignGuard"}
)

// fig5SwitchEvery returns the attack's strategy re-draw cadence: one paper
// "epoch" = local-dataset-size / batch-size rounds.
func fig5SwitchEvery(p Params) int {
	switchEvery := p.TrainSize / p.Clients / p.BatchSize
	if switchEvery < 1 {
		switchEvery = 1
	}
	return switchEvery
}

// fig5 reproduces "Fig. 5: defense comparison under time-varying attacks":
// per dataset, the test-accuracy curves of a clean Mean baseline and of the
// strong defenses when the attack strategy is re-drawn randomly every
// switch interval, including no-attack periods.
func fig5(p Params, w *walk) {
	for _, key := range fig5Datasets {
		base := campaign.NewCell(key, "Mean", "NoAttack", p)
		base.NumByz = 0
		curves := []*campaign.CellResult{w.cell(base)}
		t := &Table{Title: fmt.Sprintf("Fig. 5 — test accuracy under time-varying attacks, %s", datasetTitle(key))}
		t.Header = []string{"Round", "Baseline"}
		for _, def := range fig5Defenses {
			c := campaign.NewCell(key, def, "TimeVarying", p)
			c.AttackParam = float64(fig5SwitchEvery(p))
			curves = append(curves, w.cell(c))
			t.Header = append(t.Header, def)
		}
		for i, r := range curves[0].EvalRounds {
			row := []string{fmt.Sprintf("%d", r)}
			for _, c := range curves {
				if i < len(c.EvalAccuracies) {
					row = append(row, fmtAcc(c.EvalAccuracies[i]))
				} else {
					row = append(row, "-")
				}
			}
			t.AddRow(row...)
		}
		w.add(t)
	}
}

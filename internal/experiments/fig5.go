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

// fig5Spec declares the Fig. 5 grid. Per dataset, the first cell is the
// clean Mean baseline, followed by one TimeVarying cell per defense.
func fig5Spec(p Params) campaign.Spec {
	spec := campaign.Spec{Name: "fig5"}
	switchEvery := fig5SwitchEvery(p)
	for _, key := range fig5Datasets {
		base := campaign.NewCell(key, "Mean", "NoAttack", p)
		base.NumByz = 0
		spec.Cells = append(spec.Cells, base)
		for _, def := range fig5Defenses {
			c := campaign.NewCell(key, def, "TimeVarying", p)
			c.AttackParam = float64(switchEvery)
			spec.Cells = append(spec.Cells, c)
		}
	}
	return spec
}

// renderFig5 reproduces "Fig. 5: defense comparison under time-varying attacks":
// test-accuracy curves of the strong defenses when the attack strategy is
// re-drawn randomly every switch interval, including no-attack periods.
func renderFig5(results []*campaign.CellResult) ([]*Table, error) {
	cur := cursor{results: results}
	var tables []*Table
	for _, key := range fig5Datasets {
		ds, err := DatasetByKey(key)
		if err != nil {
			return nil, err
		}
		type curve struct {
			name   string
			rounds []int
			accs   []float64
		}
		curves := make([]curve, 0, 1+len(fig5Defenses))
		base := cur.next()
		curves = append(curves, curve{name: "Baseline", rounds: base.EvalRounds, accs: base.EvalAccuracies})
		for _, def := range fig5Defenses {
			r := cur.next()
			curves = append(curves, curve{name: def, rounds: r.EvalRounds, accs: r.EvalAccuracies})
		}

		t := &Table{Title: fmt.Sprintf("Fig. 5 — test accuracy under time-varying attacks, %s", ds.Title)}
		t.Header = []string{"Round"}
		for _, c := range curves {
			t.Header = append(t.Header, c.name)
		}
		for i, r := range curves[0].rounds {
			row := []string{fmt.Sprintf("%d", r)}
			for _, c := range curves {
				if i < len(c.accs) {
					row = append(row, fmtAcc(c.accs[i]))
				} else {
					row = append(row, "-")
				}
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return cur.tables(tables...)
}

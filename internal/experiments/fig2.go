package experiments

import (
	"encoding/json"
	"fmt"

	"github.com/signguard/signguard/internal/campaign"
)

// fig2Datasets are the two panels of the paper's Fig. 2.
var fig2Datasets = []string{"mnist", "cifar"}

// fig2SampleEvery is the sign-statistics sampling stride for a parameter
// set: about 30 samples across the run.
func fig2SampleEvery(p Params) int {
	se := p.Rounds / 30
	if se < 1 {
		se = 1
	}
	return se
}

// fig2 reproduces the paper's Fig. 2: clean training (no Byzantine
// clients) on the MNIST- and CIFAR-analogs with the sign-statistics probe
// attached, sampling about 30 times per run. Per sampled round, each panel
// gives the (pos, zero, neg) proportions of the average honest gradient and
// of a virtual gradient crafted by the LIE attack from the same round's
// honest gradients.
func fig2(p Params, w *walk) {
	for _, key := range fig2Datasets {
		c := campaign.NewCell(key, "Mean", "NoAttack", p)
		// Clean training: no Byzantine clients at all (matches the paper's
		// Fig. 2 protocol of training "under no attacks").
		c.NumByz = 0
		c.Probe = SignStatsProbe
		c.ProbeParam = float64(fig2SampleEvery(p))
		var s SignStatsSeries
		if err := json.Unmarshal(w.cell(c).Probe, &s); err != nil {
			w.fail(fmt.Errorf("experiments: decoding fig2 probe for %s: %w", key, err))
		}
		t := &Table{Title: fmt.Sprintf("Fig. 2 — sign statistics over training (%s)", datasetTitle(key))}
		t.Header = []string{"Round", "Honest pos", "Honest zero", "Honest neg", "LIE pos", "LIE zero", "LIE neg"}
		for i, r := range s.Rounds {
			t.AddRow(
				fmt.Sprintf("%d", r),
				fmtRate(s.Honest[i].Pos), fmtRate(s.Honest[i].Zero), fmtRate(s.Honest[i].Neg),
				fmtRate(s.LIE[i].Pos), fmtRate(s.LIE[i].Zero), fmtRate(s.LIE[i].Neg),
			)
		}
		w.add(t)
	}
}

package experiments

import (
	"encoding/json"
	"fmt"

	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/stats"
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

// fig2Series is one dataset's sign-statistics traces: per sampled round,
// the (pos, zero, neg) proportions of the average honest gradient and of a
// virtual gradient crafted by the LIE attack from the same round's honest
// gradients — the reproduction of the paper's Fig. 2.
type fig2Series struct {
	Dataset string
	Rounds  []int
	Honest  []stats.SignStats
	LIE     []stats.SignStats
}

// fig2Spec declares the Fig. 2 campaign: clean training (no Byzantine
// clients) on the MNIST- and CIFAR-analogs with the sign-statistics probe
// attached, sampling about 30 times per run.
func fig2Spec(p Params) campaign.Spec {
	spec := campaign.Spec{Name: "fig2"}
	for _, key := range fig2Datasets {
		c := campaign.NewCell(key, "Mean", "NoAttack", p)
		// Clean training: no Byzantine clients at all (matches the paper's
		// Fig. 2 protocol of training "under no attacks").
		c.NumByz = 0
		c.Probe = SignStatsProbe
		c.ProbeParam = float64(fig2SampleEvery(p))
		spec.Cells = append(spec.Cells, c)
	}
	return spec
}

// decodeFig2 reads each panel's probe payload back into its series.
func decodeFig2(results []*campaign.CellResult) ([]fig2Series, error) {
	cur := cursor{results: results}
	series := make([]fig2Series, 0, len(fig2Datasets))
	for _, key := range fig2Datasets {
		ds, err := DatasetByKey(key)
		if err != nil {
			return nil, err
		}
		var ss SignStatsSeries
		if err := json.Unmarshal(cur.next().Probe, &ss); err != nil {
			return nil, fmt.Errorf("experiments: decoding fig2 probe for %s: %w", key, err)
		}
		series = append(series, fig2Series{Dataset: ds.Title, Rounds: ss.Rounds, Honest: ss.Honest, LIE: ss.LIE})
	}
	if _, err := cur.tables(); err != nil {
		return nil, err
	}
	return series, nil
}

// renderFig2 renders each panel's sign-statistics series in the paper's
// reporting form.
func renderFig2(results []*campaign.CellResult) ([]*Table, error) {
	series, err := decodeFig2(results)
	if err != nil {
		return nil, err
	}
	tables := make([]*Table, 0, len(series))
	for _, s := range series {
		t := &Table{Title: fmt.Sprintf("Fig. 2 — sign statistics over training (%s)", s.Dataset)}
		t.Header = []string{"Round", "Honest pos", "Honest zero", "Honest neg", "LIE pos", "LIE zero", "LIE neg"}
		for i, r := range s.Rounds {
			t.AddRow(
				fmt.Sprintf("%d", r),
				fmtRate(s.Honest[i].Pos), fmtRate(s.Honest[i].Zero), fmtRate(s.Honest[i].Neg),
				fmtRate(s.LIE[i].Pos), fmtRate(s.LIE[i].Zero), fmtRate(s.LIE[i].Neg),
			)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

package experiments

import (
	"fmt"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/core"
)

// ablationCombo is one row of Table III: a subset of SignGuard-Sim's
// defensive components.
type ablationCombo struct {
	Thresholding bool
	Clustering   bool
	NormClip     bool
}

func (c ablationCombo) label() string {
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "-"
	}
	return fmt.Sprintf("T=%s C=%s N=%s", mark(c.Thresholding), mark(c.Clustering), mark(c.NormClip))
}

// ablationCombos returns the six component subsets of the paper's Table III,
// in its row order.
func ablationCombos() []ablationCombo {
	return []ablationCombo{
		{Thresholding: true},
		{Clustering: true},
		{NormClip: true},
		{Thresholding: true, Clustering: true},
		{Clustering: true, NormClip: true},
		{Thresholding: true, Clustering: true, NormClip: true},
	}
}

// ablationRuleName is the registry key of one ablated SignGuard-Sim
// variant.
func ablationRuleName(c ablationCombo) string {
	return "SignGuard-Sim[" + c.label() + "]"
}

// newAblationRule builds SignGuard-Sim with only the combo's components
// enabled.
func newAblationRule(c ablationCombo, seed int64) (aggregate.Rule, error) {
	cfg := core.DefaultConfig()
	cfg.Similarity = core.CosineSimilarity
	cfg.UseNormFilter = c.Thresholding
	cfg.UseSignFilter = c.Clustering
	cfg.UseNormClip = c.NormClip
	cfg.Seed = seed
	return core.New(cfg)
}

// table3ReverseScale is the scale of the Table III reverse attack for a
// combo: the norm threshold R when thresholding or clipping is active, 100
// when neither is (following the paper).
func table3ReverseScale(c ablationCombo) float64 {
	if c.Thresholding || c.NormClip {
		return core.UpperBound
	}
	return 100
}

// table3 reproduces "Table III: results under different defensive
// components" — the CIFAR-analog ablation of SignGuard-Sim's thresholding,
// clustering and norm-clipping components, each subset under the Random,
// scaled-Reverse and LIE attacks.
func table3(p Params, w *walk) {
	t := &Table{Title: "Table III — SignGuard-Sim component ablation (best test accuracy %)"}
	t.Header = []string{"Components", "Random", "Reverse", "LIE"}
	for _, combo := range ablationCombos() {
		rule := ablationRuleName(combo)
		rev := campaign.NewCell("cifar", rule, "Reverse", p)
		rev.AttackParam = table3ReverseScale(combo)
		row := []string{combo.label()}
		for _, c := range []campaign.Cell{
			campaign.NewCell("cifar", rule, "Random", p), rev, campaign.NewCell("cifar", rule, "LIE", p),
		} {
			row = append(row, fmtAcc(w.cell(c).BestAccuracy))
		}
		t.AddRow(row...)
	}
	w.add(t)
}

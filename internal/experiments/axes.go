package experiments

import "github.com/signguard/signguard/internal/campaign"

// This file declares the adaptive-attack comparison, a post-paper
// scenario axis the round pipeline opened: an ordinary campaign — a grid
// of cells — so it runs, caches, resumes and exports exactly like the
// paper's tables and figures.

// adaptiveRules are the defenses the adaptive-attack comparison covers.
var adaptiveRules = []string{"SignGuard", "Multi-Krum", "Mean"}

// adaptiveAttacks pairs the static Min-Max with its history-aware port.
var adaptiveAttacks = []string{"Min-Max", "Adaptive-Min-Max"}

// adaptiveSpec declares the adaptive-attack comparison: static Min-Max vs
// the filtering-feedback-driven Adaptive-Min-Max across defenses.
func adaptiveSpec(p Params) campaign.Spec {
	spec := campaign.Spec{Name: "adaptive"}
	for _, rule := range adaptiveRules {
		for _, att := range adaptiveAttacks {
			spec.Cells = append(spec.Cells, campaign.NewCell("mnist", rule, att, p))
		}
	}
	return spec
}

// renderAdaptive renders the adaptive-attack comparison's best accuracy
// per defense × attack.
func renderAdaptive(results []*campaign.CellResult) ([]*Table, error) {
	t := &Table{Title: "Adaptive Min-Max — best test accuracy %"}
	t.Header = append([]string{"Defense"}, adaptiveAttacks...)
	cur := cursor{results: results}
	for _, rule := range adaptiveRules {
		row := []string{rule}
		for range adaptiveAttacks {
			row = append(row, fmtAcc(cur.next().BestAccuracy))
		}
		t.AddRow(row...)
	}
	return cur.tables(t)
}

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

// adaptive compares static Min-Max with the filtering-feedback-driven
// Adaptive-Min-Max across defenses: best accuracy per defense × attack.
func adaptive(p Params, w *walk) {
	t := &Table{Title: "Adaptive Min-Max — best test accuracy %"}
	t.Header = append([]string{"Defense"}, adaptiveAttacks...)
	for _, rule := range adaptiveRules {
		row := []string{rule}
		for _, att := range adaptiveAttacks {
			row = append(row, fmtAcc(w.cell(campaign.NewCell("mnist", rule, att, p)).BestAccuracy))
		}
		t.AddRow(row...)
	}
	w.add(t)
}

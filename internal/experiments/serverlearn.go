package experiments

import (
	"fmt"

	"github.com/signguard/signguard/internal/campaign"
)

// This file declares the server-learning campaign: the related-work defense
// families beyond the paper's Table I (FLTrust server learning, FLAME-style
// clustering, the median-of-means neighborhood filter) against the two
// adversaries that stress them hardest — the backdoor / model-replacement
// attack their papers were designed for, and the history-aware
// Adaptive-Min-Max — at a 30% Byzantine fraction. Mean rides along as the
// undefended reference row.

// serverLearnRules are the compared rules; Mean last as the reference.
var serverLearnRules = []string{"FLTrust", "FLAME", "MoM", "Mean"}

// serverLearnAttacks are the campaign's adversaries.
var serverLearnAttacks = []string{"Backdoor", "Adaptive-Min-Max"}

// serverLearnBoost is the model-replacement factor λ of the campaign's
// Backdoor cells. The classic replacement scaling is of cohort order
// (Bagdasaryan et al. use n/η); at the attack's default λ=3 the boosted
// minority barely moves an 8-client mean, so the grid pins the aggressive
// setting the defense families were designed against.
const serverLearnBoost = 10

// serverLearnByz returns the campaign's Byzantine count: 30% of the cohort.
func serverLearnByz(p Params) int {
	byz := (3 * p.Clients) / 10
	if byz < 1 {
		byz = 1
	}
	return byz
}

// serverLearn compares the rules' final test accuracy per rule × attack
// on MNIST (final, not best: a backdoored or destabilized model must pay
// for late-round damage), with the Byzantine count pinned to 30% of the
// clients (overriding the Params fraction, so the grid is comparable
// across parameter scales).
func serverLearn(p Params, w *walk) {
	byz := serverLearnByz(p)
	t := &Table{
		Title:  fmt.Sprintf("Server-learning defenses — final test accuracy %% (%d/%d Byzantine)", byz, p.Clients),
		Header: append([]string{"Defense"}, serverLearnAttacks...),
	}
	for _, rule := range serverLearnRules {
		row := []string{rule}
		for _, att := range serverLearnAttacks {
			c := campaign.NewCell("mnist", rule, att, p)
			c.NumByz = byz
			if att == "Backdoor" {
				c.AttackParam = serverLearnBoost
			}
			r := w.cell(c)
			if r.Diverged {
				row = append(row, "diverged")
				continue
			}
			row = append(row, fmtAcc(r.FinalAccuracy))
		}
		t.AddRow(row...)
	}
	w.add(t)
}

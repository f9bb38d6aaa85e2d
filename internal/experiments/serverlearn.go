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

// serverLearnSpec declares the server-learning defense grid: each rule ×
// attack on MNIST with the Byzantine count pinned to 30% of the clients
// (overriding the Params fraction, so the grid is comparable across
// parameter scales).
func serverLearnSpec(p Params) campaign.Spec {
	spec := campaign.Spec{Name: "serverlearn"}
	byz := serverLearnByz(p)
	for _, rule := range serverLearnRules {
		for _, att := range serverLearnAttacks {
			c := campaign.NewCell("mnist", rule, att, p)
			c.NumByz = byz
			if att == "Backdoor" {
				c.AttackParam = serverLearnBoost
			}
			spec.Cells = append(spec.Cells, c)
		}
	}
	return spec
}

// renderServerLearn renders final test accuracy per rule × attack (final,
// not best: a backdoored or destabilized model must pay for late-round
// damage).
func renderServerLearn(results []*campaign.CellResult) ([]*Table, error) {
	t := &Table{Header: append([]string{"Defense"}, serverLearnAttacks...)}
	cur := cursor{results: results}
	var cell campaign.Cell
	for _, rule := range serverLearnRules {
		row := []string{rule}
		for range serverLearnAttacks {
			r := cur.next()
			cell = r.Cell
			if r.Diverged {
				row = append(row, "diverged")
				continue
			}
			row = append(row, fmtAcc(r.FinalAccuracy))
		}
		t.AddRow(row...)
	}
	// Every cell carries the grid's pinned Byzantine count and Params.
	t.Title = fmt.Sprintf("Server-learning defenses — final test accuracy %% (%d/%d Byzantine)",
		cell.NumByz, cell.Params.Clients)
	return cur.tables(t)
}

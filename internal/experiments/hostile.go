package experiments

import (
	"fmt"

	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/sanitize"
)

// This file declares the hostile-input campaign: the NonFinite attack
// family (NaN/±Inf injection, full-vector and sparse) swept against the
// full defense catalog through the round pipeline's ingest screen. The
// question it answers is operational rather than statistical — with the
// screen refusing the poison, does every defense keep training (and at what
// accuracy), and how many hostile submissions does it absorb along the way?

// hostileAttacks are the swept non-finite injections: the three full-vector
// poisons and the sparse variant that hides 1% poisoned coordinates inside
// an otherwise-honest gradient.
var hostileAttacks = []string{
	"NonFinite-NaN", "NonFinite-PosInf", "NonFinite-NegInf", "NonFinite-Sparse",
}

// hostileRules picks the compared defenses: the paper's SignGuard, the
// strongest baselines, and the undefended mean (which survives only
// because the screen drops the poison before aggregation).
var hostileRules = []string{"SignGuard", "Multi-Krum", "DnC", "Median", "Mean"}

// hostileSpec declares the hostile-input sweep: defense × non-finite attack
// on the MNIST analog, every cell carrying the reject screening policy.
// The round pipeline refuses non-finite submissions whatever the policy
// says; it is cell identity only (the /nonfinite= axis), kept so the
// grid's stored results keep their keys.
func hostileSpec(p Params) campaign.Spec {
	spec := campaign.Spec{Name: "hostile"}
	for _, rule := range hostileRules {
		for _, att := range hostileAttacks {
			c := campaign.NewCell("mnist", rule, att, p)
			c.NonFinitePolicy = sanitize.Reject.String()
			spec.Cells = append(spec.Cells, c)
		}
	}
	return spec
}

// renderHostile renders the hostile-input sweep's best accuracy plus the
// number of submissions the ingest screen dropped per defense × attack.
func renderHostile(results []*campaign.CellResult) ([]*Table, error) {
	t := &Table{Title: "Hostile input (reject screen) — best test accuracy % (submissions screened)"}
	t.Header = []string{"Defense"}
	t.Header = append(t.Header, hostileAttacks...)
	cur := cursor{results: results}
	for _, rule := range hostileRules {
		row := []string{rule}
		for range hostileAttacks {
			r := cur.next()
			row = append(row, fmt.Sprintf("%s (%d)", fmtAcc(r.BestAccuracy), r.NonFiniteScreened))
		}
		t.AddRow(row...)
	}
	return cur.tables(t)
}

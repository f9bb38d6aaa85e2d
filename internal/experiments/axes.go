package experiments

import (
	"fmt"

	"github.com/signguard/signguard/internal/campaign"
)

// This file declares the post-paper scenario axes the round pipeline
// opened (ROADMAP "New scenario axes"): per-round client subsampling,
// defense hyperparameter sweeps, and adaptive round-aware attacks. Each is
// an ordinary campaign — a grid of cells — so it runs, caches, resumes and
// exports exactly like the paper's tables and figures.

// subsampleFractions are the per-round participation fractions of the
// subsampling sweep (1.0 = the paper's full-participation protocol).
var subsampleFractions = []float64{1.0, 0.6, 0.3}

// subsampleRules are the defenses the subsampling sweep compares; each
// is built for the per-round cohort size, not the full client count.
var subsampleRules = []string{"SignGuard", "Multi-Krum", "Mean"}

// subsampleSpec declares the client-participation sweep: each defense
// under the LIE attack while the per-round cohort shrinks from all
// clients to a 30% uniform subsample.
func subsampleSpec(p Params) campaign.Spec {
	spec := campaign.Spec{Name: "subsample"}
	for _, rule := range subsampleRules {
		for _, frac := range subsampleFractions {
			c := campaign.NewCell("mnist", rule, "LIE", p)
			if frac < 1 {
				k := int(frac * float64(p.Clients))
				// Krum needs at least 3 gradients even with F=0; keep the
				// smallest cohorts viable for every swept defense.
				if k < 3 {
					k = 3
				}
				c.Participation = campaign.ParticipationUniform
				c.SampleK = k
			}
			spec.Cells = append(spec.Cells, c)
		}
	}
	return spec
}

// renderSubsample renders the participation sweep's best accuracy per
// defense × participation fraction.
func renderSubsample(results []*campaign.CellResult) ([]*Table, error) {
	t := &Table{Title: "Client subsampling — best test accuracy % (LIE attack)"}
	t.Header = []string{"Defense"}
	for _, frac := range subsampleFractions {
		t.Header = append(t.Header, fmt.Sprintf("%.0f%% cohort", 100*frac))
	}
	cur := cursor{results: results}
	for _, rule := range subsampleRules {
		row := []string{rule}
		for range subsampleFractions {
			row = append(row, fmtAcc(cur.next().BestAccuracy))
		}
		t.AddRow(row...)
	}
	return cur.tables(t)
}

// coordFractions is the SignGuard coordinate-fraction sweep axis (the
// paper's default is 0.1).
var coordFractions = []float64{0.05, 0.1, 0.25, 0.5, 1.0}

// coordFracAttacks are the attacks the sweep evaluates against.
var coordFracAttacks = []string{"LIE", "ByzMean"}

// coordFracSpec declares the SignGuard hyperparameter sweep: the sign
// statistics' random coordinate fraction as a plain grid axis.
func coordFracSpec(p Params) campaign.Spec {
	spec := campaign.Spec{Name: "coordfrac"}
	for _, att := range coordFracAttacks {
		for _, cf := range coordFractions {
			c := campaign.NewCell("mnist", "SignGuard", att, p)
			c.RuleHyper = map[string]float64{"coord_fraction": cf}
			spec.Cells = append(spec.Cells, c)
		}
	}
	return spec
}

// renderCoordFrac renders the coordinate-fraction sweep's best accuracy
// per attack × fraction.
func renderCoordFrac(results []*campaign.CellResult) ([]*Table, error) {
	t := &Table{Title: "SignGuard coord_fraction sweep — best test accuracy %"}
	t.Header = []string{"Attack"}
	for _, cf := range coordFractions {
		t.Header = append(t.Header, fmt.Sprintf("q=%g", cf))
	}
	cur := cursor{results: results}
	for _, att := range coordFracAttacks {
		row := []string{att}
		for range coordFractions {
			row = append(row, fmtAcc(cur.next().BestAccuracy))
		}
		t.AddRow(row...)
	}
	return cur.tables(t)
}

// dncSubDims is the DnC subsampling-dimension sweep axis (the harness
// default is 2000).
var dncSubDims = []float64{500, 2000, 8000}

// dncSubDimAttacks are DnC's strongest adversary (Min-Max) and LIE.
var dncSubDimAttacks = []string{"Min-Max", "LIE"}

// dncSubDimSpec declares the DnC hyperparameter sweep: the subsampled
// coordinate count as a plain grid axis.
func dncSubDimSpec(p Params) campaign.Spec {
	spec := campaign.Spec{Name: "dncsubdim"}
	for _, att := range dncSubDimAttacks {
		for _, sd := range dncSubDims {
			c := campaign.NewCell("mnist", "DnC", att, p)
			c.RuleHyper = map[string]float64{"subdim": sd}
			spec.Cells = append(spec.Cells, c)
		}
	}
	return spec
}

// renderDnCSubDim renders the DnC subsampling-dimension sweep's best
// accuracy per attack × subdim.
func renderDnCSubDim(results []*campaign.CellResult) ([]*Table, error) {
	t := &Table{Title: "DnC subdim sweep — best test accuracy %"}
	t.Header = []string{"Attack"}
	for _, sd := range dncSubDims {
		t.Header = append(t.Header, fmt.Sprintf("subdim=%g", sd))
	}
	cur := cursor{results: results}
	for _, att := range dncSubDimAttacks {
		row := []string{att}
		for range dncSubDims {
			row = append(row, fmtAcc(cur.next().BestAccuracy))
		}
		t.AddRow(row...)
	}
	return cur.tables(t)
}

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

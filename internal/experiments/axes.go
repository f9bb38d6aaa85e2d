package experiments

import (
	"context"
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

// SubsampleSpec declares the client-participation sweep: each defense
// under the LIE attack while the per-round cohort shrinks from all
// clients to a 30% uniform subsample.
func SubsampleSpec(p Params) campaign.Spec {
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

// Subsample runs the participation sweep and renders best accuracy per
// defense × participation fraction.
func Subsample(e *campaign.Engine, p Params) (*Table, error) {
	rep, err := e.Run(context.Background(), SubsampleSpec(p))
	if err != nil {
		return nil, err
	}
	t := &Table{Title: "Client subsampling — best test accuracy % (LIE attack)"}
	t.Header = []string{"Defense"}
	for _, frac := range subsampleFractions {
		t.Header = append(t.Header, fmt.Sprintf("%.0f%% cohort", 100*frac))
	}
	cur := cursor{results: rep.Results}
	for _, rule := range subsampleRules {
		row := []string{rule}
		for range subsampleFractions {
			row = append(row, fmtAcc(cur.next().BestAccuracy))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// coordFractions is the SignGuard coordinate-fraction sweep axis (the
// paper's default is 0.1).
var coordFractions = []float64{0.05, 0.1, 0.25, 0.5, 1.0}

// coordFracAttacks are the attacks the sweep evaluates against.
var coordFracAttacks = []string{"LIE", "ByzMean"}

// CoordFracSpec declares the SignGuard hyperparameter sweep: the sign
// statistics' random coordinate fraction as a plain grid axis.
func CoordFracSpec(p Params) campaign.Spec {
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

// CoordFrac runs the coordinate-fraction sweep and renders best accuracy
// per attack × fraction.
func CoordFrac(e *campaign.Engine, p Params) (*Table, error) {
	rep, err := e.Run(context.Background(), CoordFracSpec(p))
	if err != nil {
		return nil, err
	}
	t := &Table{Title: "SignGuard coord_fraction sweep — best test accuracy %"}
	t.Header = []string{"Attack"}
	for _, cf := range coordFractions {
		t.Header = append(t.Header, fmt.Sprintf("q=%g", cf))
	}
	cur := cursor{results: rep.Results}
	for _, att := range coordFracAttacks {
		row := []string{att}
		for range coordFractions {
			row = append(row, fmtAcc(cur.next().BestAccuracy))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// dncSubDims is the DnC subsampling-dimension sweep axis (the harness
// default is 2000).
var dncSubDims = []float64{500, 2000, 8000}

// DnCSubDimSpec declares the DnC hyperparameter sweep under its
// strongest adversary (Min-Max) and LIE.
func DnCSubDimSpec(p Params) campaign.Spec {
	spec := campaign.Spec{Name: "dncsubdim"}
	for _, att := range []string{"Min-Max", "LIE"} {
		for _, sd := range dncSubDims {
			c := campaign.NewCell("mnist", "DnC", att, p)
			c.RuleHyper = map[string]float64{"subdim": sd}
			spec.Cells = append(spec.Cells, c)
		}
	}
	return spec
}

// adaptiveRules are the defenses the adaptive-attack comparison covers.
var adaptiveRules = []string{"SignGuard", "Multi-Krum", "Mean"}

// adaptiveAttacks pairs the static Min-Max with its history-aware port.
var adaptiveAttacks = []string{"Min-Max", "Adaptive-Min-Max"}

// AdaptiveSpec declares the adaptive-attack comparison: static Min-Max vs
// the filtering-feedback-driven Adaptive-Min-Max across defenses.
func AdaptiveSpec(p Params) campaign.Spec {
	spec := campaign.Spec{Name: "adaptive"}
	for _, rule := range adaptiveRules {
		for _, att := range adaptiveAttacks {
			spec.Cells = append(spec.Cells, campaign.NewCell("mnist", rule, att, p))
		}
	}
	return spec
}

// Adaptive runs the adaptive-attack comparison and renders best accuracy
// per defense × attack.
func Adaptive(e *campaign.Engine, p Params) (*Table, error) {
	rep, err := e.Run(context.Background(), AdaptiveSpec(p))
	if err != nil {
		return nil, err
	}
	t := &Table{Title: "Adaptive Min-Max — best test accuracy %"}
	t.Header = append([]string{"Defense"}, adaptiveAttacks...)
	cur := cursor{results: rep.Results}
	for _, rule := range adaptiveRules {
		row := []string{rule}
		for range adaptiveAttacks {
			row = append(row, fmtAcc(cur.next().BestAccuracy))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// SeedGroupTable renders seed-group statistics (mean ± 95% CI over the
// seed replicas of each cell) — the renderer counterpart of the group-csv
// and group-json exports.
func SeedGroupTable(title string, results []*campaign.CellResult) *Table {
	t := &Table{Title: title}
	t.Header = []string{"Cell", "Runs", "Best acc", "Final acc", "Diverged"}
	for _, g := range campaign.GroupBySeed(results) {
		t.AddRow(g.ID, fmt.Sprintf("%d", g.N),
			campaign.FormatMeanCI(g.Best, 2), campaign.FormatMeanCI(g.Final, 2),
			fmt.Sprintf("%d", g.Diverged))
	}
	return t
}

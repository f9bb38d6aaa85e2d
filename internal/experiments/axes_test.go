package experiments

import (
	"testing"

	"github.com/signguard/signguard/internal/campaign"
)

// axesParams are toy-scale simulation parameters for the axis sweeps.
func axesParams() Params {
	return Params{
		Clients: 8, ByzFraction: 0.25, Rounds: 4, BatchSize: 4,
		EvalEvery: 2, EvalSamples: 40, TrainSize: 200, TestSize: 60, Seed: 1,
	}
}

// TestSubsampleSweepThroughEngine is one of the new-axes acceptance paths:
// a client-subsampling sweep running end to end through the campaign
// engine and its renderer.
func TestSubsampleSweepThroughEngine(t *testing.T) {
	p := axesParams()
	spec := subsampleSpec(p)
	subsampled := 0
	for _, c := range spec.Cells {
		if c.Participation == campaign.ParticipationUniform {
			if c.SampleK < 1 || c.SampleK >= p.Clients {
				t.Fatalf("cell %s has cohort %d of %d", c.ID(), c.SampleK, p.Clients)
			}
			subsampled++
		}
	}
	if subsampled == 0 {
		t.Fatal("subsample spec contains no subsampled cells")
	}
	tables, err := runExperiment(t.Context(), NewEngine(0, nil, nil), "subsample", p)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Rows) != len(subsampleRules) {
		t.Errorf("%d rows, want %d", len(tbl.Rows), len(subsampleRules))
	}
	if len(tbl.Header) != 1+len(subsampleFractions) {
		t.Errorf("%d columns", len(tbl.Header))
	}
}

// TestCoordFracSweepThroughEngine covers the defense-hyperparameter axis:
// SignGuard's CoordFraction as a plain grid dimension.
func TestCoordFracSweepThroughEngine(t *testing.T) {
	p := axesParams()
	for _, c := range coordFracSpec(p).Cells {
		if _, ok := c.RuleHyper["coord_fraction"]; !ok {
			t.Fatalf("cell %s missing the sweep hyperparameter", c.ID())
		}
	}
	tables, err := runExperiment(t.Context(), NewEngine(0, nil, nil), "coordfrac", p)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Rows) != len(coordFracAttacks) || len(tbl.Header) != 1+len(coordFractions) {
		t.Errorf("rendered %dx%d", len(tbl.Rows), len(tbl.Header))
	}
}

// TestAdaptiveAttackThroughEngine exercises the registered adaptive attack
// end to end: Adaptive-Min-Max resolves through the registry and trains.
func TestAdaptiveAttackThroughEngine(t *testing.T) {
	p := axesParams()
	spec := adaptiveSpec(p).Filter("SignGuard")
	rep, err := NewEngine(0, nil, nil).Run(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var sawAdaptive bool
	for _, r := range rep.Results {
		if r.AttackName == "Adaptive-Min-Max" {
			sawAdaptive = true
		}
	}
	if !sawAdaptive {
		t.Fatal("adaptive attack never ran")
	}
}

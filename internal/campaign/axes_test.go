package campaign_test

import (
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/campaign"
)

// TestNewAxesKeepHistoricalHashes pins the cache-compatibility contract:
// a cell that uses none of the new axes (participation, hyperparameters)
// must hash exactly as it did before the fields existed.
func TestNewAxesKeepHistoricalHashes(t *testing.T) {
	base := campaign.NewCell("tiny", "Mean", "LIE", tinyParams(1))
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	full := base
	full.Participation = "" // explicit zero values
	full.SampleK = 0
	full.RuleHyper = nil
	k2, err := full.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("zero-valued axis fields changed the cell hash")
	}
	// "full" is the documented-equivalent spelling of "" and must share
	// its identity.
	spelled := base
	spelled.Participation = campaign.ParticipationFull
	kFull, err := spelled.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kFull != k1 {
		t.Fatal(`Participation "full" hashes differently from ""`)
	}
	sub := base
	sub.Participation = campaign.ParticipationUniform
	sub.SampleK = 4
	k3, _ := sub.Key()
	hyp := base
	hyp.RuleHyper = map[string]float64{"coord_fraction": 0.25}
	k4, _ := hyp.Key()
	if k3 == k1 || k4 == k1 || k3 == k4 {
		t.Fatal("axis fields not part of the cell identity")
	}
}

func TestSubsampleCellsThroughEngine(t *testing.T) {
	spec := campaign.Spec{Name: "subsample"}
	for _, k := range []int{4, 8} {
		c := campaign.NewCell("tiny", "SignGuard", "LIE", tinyParams(1))
		c.Participation = campaign.ParticipationUniform
		c.SampleK = k
		spec.Cells = append(spec.Cells, c)
	}
	e := &campaign.Engine{Registry: testRegistry(), Workers: 2}
	rep := mustRun(t, e, spec)
	// The tiny dataset saturates accuracy, so compare the full traces.
	h := resultHashes(t, rep)
	if h[0] == h[1] {
		t.Error("subsample size had no effect")
	}
	if len(rep.Results[0].TrainLoss) == 0 ||
		rep.Results[0].TrainLoss[len(rep.Results[0].TrainLoss)-1] ==
			rep.Results[1].TrainLoss[len(rep.Results[1].TrainLoss)-1] {
		t.Error("subsample size had no effect on the loss trajectory")
	}
	// Deterministic: a re-run (no cache) reproduces the results.
	rep2 := mustRun(t, &campaign.Engine{Registry: testRegistry(), Workers: 1}, spec)
	a, b := resultHashes(t, rep), resultHashes(t, rep2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("subsampled cell %d not deterministic", i)
		}
	}
}

// TestSubsampledTrMeanFeasible pins the cohort-sized Byzantine grant: the
// population-level f (2 of 8 clients) would trim the entire 4-client
// cohort; the builder must cap f at the cohort's (n−1)/2 bound so the
// sweep runs instead of aborting.
func TestSubsampledTrMeanFeasible(t *testing.T) {
	c := campaign.NewCell("tiny", "TrMean", "LIE", tinyParams(1))
	c.Participation = campaign.ParticipationUniform
	c.SampleK = 4
	rep := mustRun(t, &campaign.Engine{Registry: testRegistry()}, campaign.Spec{Name: "trm", Cells: []campaign.Cell{c}})
	if rep.Results[0].Diverged {
		t.Error("subsampled TrMean diverged under LIE")
	}
}

func TestHyperCellsThroughEngine(t *testing.T) {
	spec := campaign.Spec{Name: "coordfrac"}
	for _, cf := range []float64{0.1, 1.0} {
		c := campaign.NewCell("tiny", "SignGuard", "LIE", tinyParams(1))
		c.RuleHyper = map[string]float64{"coord_fraction": cf}
		spec.Cells = append(spec.Cells, c)
	}
	rep := mustRun(t, &campaign.Engine{Registry: testRegistry(), Workers: 2}, spec)
	h := resultHashes(t, rep)
	if h[0] == h[1] {
		t.Error("coord_fraction hyperparameter had no effect on results")
	}
}

func TestValidateRejectsBadAxes(t *testing.T) {
	reg := testRegistry()
	p := tinyParams(1)

	bad := campaign.NewCell("tiny", "SignGuard", "LIE", p)
	bad.RuleHyper = map[string]float64{"not_a_hyper": 1}
	if err := reg.Validate(campaign.Spec{Name: "x", Cells: []campaign.Cell{bad}}); err == nil ||
		!strings.Contains(err.Error(), "not_a_hyper") {
		t.Errorf("unknown hyperparameter passed validation: %v", err)
	}

	badPart := campaign.NewCell("tiny", "Mean", "LIE", p)
	badPart.Participation = "lottery"
	if err := reg.Validate(campaign.Spec{Name: "x", Cells: []campaign.Cell{badPart}}); err == nil {
		t.Error("unknown participation policy passed validation")
	}

	badK := campaign.NewCell("tiny", "Mean", "LIE", p)
	badK.Participation = campaign.ParticipationUniform
	badK.SampleK = p.Clients + 5
	if err := reg.Validate(campaign.Spec{Name: "x", Cells: []campaign.Cell{badK}}); err == nil {
		t.Error("oversized SampleK passed validation")
	}

	strayK := campaign.NewCell("tiny", "Mean", "LIE", p)
	strayK.SampleK = 3 // without uniform participation
	if err := reg.Validate(campaign.Spec{Name: "x", Cells: []campaign.Cell{strayK}}); err == nil {
		t.Error("SampleK without uniform participation passed validation")
	}
}

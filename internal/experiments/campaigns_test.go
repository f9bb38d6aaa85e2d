package experiments

import (
	"context"
	"testing"

	"github.com/signguard/signguard/internal/campaign"
)

// gridOf is catalog entry name's grid at p.
func gridOf(t testing.TB, name string, p Params) campaign.Spec {
	t.Helper()
	x, err := Experiments().Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return x.Spec(p)
}

// runExperiment runs catalog entry name's whole grid at p through e and
// renders it.
func runExperiment(ctx context.Context, e *campaign.Engine, name string, p Params) ([]*Table, error) {
	x, err := Experiments().Lookup(name)
	if err != nil {
		return nil, err
	}
	rep, err := e.Run(ctx, x.Spec(p))
	if err != nil {
		return nil, err
	}
	return x.Render(p, rep.Results)
}

// TestCampaignSpecsResolve expands every named campaign and validates each
// cell against the registry, so a renamed rule/attack/dataset breaks here
// rather than mid-sweep.
func TestCampaignSpecsResolve(t *testing.T) {
	reg := Registry()
	p := DefaultParams(ScaleBench)
	for _, name := range CampaignNames() {
		spec, err := CampaignByName(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(spec.Cells) == 0 {
			t.Errorf("%s: empty campaign", name)
		}
		if err := reg.Validate(spec); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := CampaignByName("nope", p); err == nil {
		t.Error("accepted unknown campaign name")
	}
}

// TestTable2ThroughEngine runs the smallest multi-cell table end to end
// through the campaign engine at toy scale and checks the rendered shape.
func TestTable2ThroughEngine(t *testing.T) {
	p := Params{
		Clients: 8, ByzFraction: 0.25, Rounds: 4, BatchSize: 4,
		EvalEvery: 2, EvalSamples: 40, TrainSize: 200, TestSize: 60, Seed: 1,
	}
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tables, err := runExperiment(t.Context(), NewEngine(0, store, nil), "table2", p)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Rows) != len(table2Attacks) {
		t.Errorf("table2 has %d rows, want %d", len(tbl.Rows), len(table2Attacks))
	}
	if len(tbl.Header) != 1+2*len(table2Variants) {
		t.Errorf("table2 has %d columns", len(tbl.Header))
	}

	// A second engine over the same store must serve the whole grid from
	// cache and render the identical table.
	rep, err := NewEngine(0, store, nil).Run(t.Context(), gridOf(t, "table2", p))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 0 {
		t.Errorf("warm re-run executed %d cells, want 0", rep.Executed)
	}
}

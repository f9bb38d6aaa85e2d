package experiments

import (
	"encoding/json"
	"testing"
)

// TestFig2Tiny runs the Fig. 2 experiment at toy scale and checks each
// panel's probe series for its structural invariants: aligned lengths,
// probability-vector rows and the LIE sign shift (its negative fraction
// should exceed the honest gradient's once training is underway). The
// panels then render, one table per dataset with a row per sample.
func TestFig2Tiny(t *testing.T) {
	p := Params{
		Clients: 8, ByzFraction: 0.25, Rounds: 8, BatchSize: 4,
		EvalEvery: 4, EvalSamples: 50, TrainSize: 240, TestSize: 60, Seed: 3,
	}
	x, err := Experiments().Lookup("fig2")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewEngine(0, nil, nil).Run(t.Context(), x.Spec(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d panels", len(rep.Results))
	}
	var rows []int
	for _, r := range rep.Results {
		var s SignStatsSeries
		if err := json.Unmarshal(r.Probe, &s); err != nil {
			t.Fatal(err)
		}
		name := r.Cell.Dataset
		if len(s.Rounds) == 0 || len(s.Rounds) != len(s.Honest) || len(s.Rounds) != len(s.LIE) {
			t.Fatalf("%s: misaligned series (%d rounds, %d honest, %d lie)",
				name, len(s.Rounds), len(s.Honest), len(s.LIE))
		}
		rows = append(rows, len(s.Rounds))
		var lieMoreNegative int
		for i := range s.Rounds {
			for _, ss := range []struct{ pos, zero, neg float64 }{
				{s.Honest[i].Pos, s.Honest[i].Zero, s.Honest[i].Neg},
				{s.LIE[i].Pos, s.LIE[i].Zero, s.LIE[i].Neg},
			} {
				sum := ss.pos + ss.zero + ss.neg
				if sum < 0.999 || sum > 1.001 {
					t.Fatalf("%s: sign stats not a probability vector (sum %v)", name, sum)
				}
			}
			if s.LIE[i].Neg > s.Honest[i].Neg {
				lieMoreNegative++
			}
		}
		if lieMoreNegative*2 < len(s.Rounds) {
			t.Errorf("%s: LIE gradient more negative in only %d/%d samples",
				name, lieMoreNegative, len(s.Rounds))
		}
	}
	tables, err := x.Render(p, rep.Results)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(rows) {
		t.Fatalf("rendered %d tables for %d panels", len(tables), len(rows))
	}
	for i, tbl := range tables {
		if len(tbl.Rows) != rows[i] {
			t.Errorf("%s: %d rows for %d samples", tbl.Title, len(tbl.Rows), rows[i])
		}
	}
}

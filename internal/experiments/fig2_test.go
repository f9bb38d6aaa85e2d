package experiments

import "testing"

// TestFig2Tiny runs the Fig. 2 experiment at toy scale and checks the
// series' structural invariants: aligned lengths, probability-vector rows
// and the LIE sign shift (its negative fraction should exceed the honest
// gradient's once training is underway).
func TestFig2Tiny(t *testing.T) {
	p := Params{
		Clients: 8, ByzFraction: 0.25, Rounds: 8, BatchSize: 4,
		EvalEvery: 4, EvalSamples: 50, TrainSize: 240, TestSize: 60, Seed: 3,
	}
	rep, err := NewEngine(0, nil, nil).Run(t.Context(), fig2Spec(p))
	if err != nil {
		t.Fatal(err)
	}
	series, err := decodeFig2(rep.Results)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if len(s.Rounds) == 0 || len(s.Rounds) != len(s.Honest) || len(s.Rounds) != len(s.LIE) {
			t.Fatalf("%s: misaligned series (%d rounds, %d honest, %d lie)",
				s.Dataset, len(s.Rounds), len(s.Honest), len(s.LIE))
		}
		var lieMoreNegative int
		for i := range s.Rounds {
			for _, ss := range []struct{ pos, zero, neg float64 }{
				{s.Honest[i].Pos, s.Honest[i].Zero, s.Honest[i].Neg},
				{s.LIE[i].Pos, s.LIE[i].Zero, s.LIE[i].Neg},
			} {
				sum := ss.pos + ss.zero + ss.neg
				if sum < 0.999 || sum > 1.001 {
					t.Fatalf("%s: sign stats not a probability vector (sum %v)", s.Dataset, sum)
				}
			}
			if s.LIE[i].Neg > s.Honest[i].Neg {
				lieMoreNegative++
			}
		}
		if lieMoreNegative*2 < len(s.Rounds) {
			t.Errorf("%s: LIE gradient more negative in only %d/%d samples",
				s.Dataset, lieMoreNegative, len(s.Rounds))
		}
	}
}

package experiments

import "testing"

// axesParams are toy-scale simulation parameters for the axis sweeps.
func axesParams() Params {
	return Params{
		Clients: 8, ByzFraction: 0.25, Rounds: 4, BatchSize: 4,
		EvalEvery: 2, EvalSamples: 40, TrainSize: 200, TestSize: 60, Seed: 1,
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

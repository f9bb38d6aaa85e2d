package fl

import (
	"math"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/tensor"
)

// captureFirstRound runs one round under the given rule and returns the
// submitted gradients exactly as the defense saw them.
func captureFirstRound(t *testing.T, rule aggregate.Rule) [][]float64 {
	t.Helper()
	cfg := baseConfig(tinyDataset(t))
	cfg.Rounds = 1
	cfg.EvalEvery = 1
	cfg.NumByz = 2
	cfg.Attack = attack.NewSignFlip()
	cfg.Rule = rule
	var grads [][]float64
	cfg.RoundHook = func(st *RoundState) {
		if st.Round == 0 {
			grads = tensor.CloneAll(st.Grads)
		}
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if grads == nil {
		t.Fatal("round hook never fired")
	}
	return grads
}

// TestServerLearnerRNGIsolation proves the server root dataset machinery
// draws only from its own derived stream (Seed+8): with the same seed, the
// first-round submitted gradients of a Mean run and an FLTrust run are
// bitwise identical, so provisioning a root sampler and computing the server
// gradient shifted nothing in the model-init, partition, client-sampler or
// attack streams. (Later rounds legitimately diverge because the aggregates
// differ.) The companion guarantee — configurations that never select a
// ServerLearner keep their exact traces — is TestGoldenDeterminism, whose
// pinned digests predate FLTrust.
func TestServerLearnerRNGIsolation(t *testing.T) {
	mean := captureFirstRound(t, aggregate.NewMean())
	fltrust := captureFirstRound(t, aggregate.NewFLTrust())
	if len(mean) != len(fltrust) {
		t.Fatalf("cohort sizes differ: %d vs %d", len(mean), len(fltrust))
	}
	for i := range mean {
		for j := range mean[i] {
			if math.Float64bits(mean[i][j]) != math.Float64bits(fltrust[i][j]) {
				t.Fatalf("client %d coord %d differs: %v vs %v — the server root sampler leaked into a shared RNG stream",
					i, j, mean[i][j], fltrust[i][j])
			}
		}
	}
}

// trainUnderBackdoor trains tiny runs with a backdoor adversary and returns
// the final model's attack success rate: the fraction of non-target test
// examples the trigger flips to the target class.
func trainUnderBackdoor(t *testing.T, rule aggregate.Rule) float64 {
	return trainUnderBackdoorR(t, rule, 20)
}

func trainUnderBackdoorR(t *testing.T, rule aggregate.Rule, rounds int) float64 {
	t.Helper()
	ds := tinyDataset(t)
	cfg := baseConfig(ds)
	cfg.Rounds = rounds
	cfg.EvalEvery = rounds
	cfg.NumByz = 3
	cfg.Rule = rule
	cfg.Attack = attack.NewBackdoor(10)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		return 100 // a diverged backdoored run is a total defense failure
	}
	asr, err := EvaluateASR(sim.Model(), ds, ds.Test, 0, attack.DefaultTriggerLen)
	if err != nil {
		t.Fatal(err)
	}
	return asr
}

// TestBackdoorASRDrops is the backdoor integration assertion: under the
// model-replacement adversary at 30% Byzantine, the trigger succeeds against
// undefended Mean but the server-side defenses cut the attack success rate
// by a wide margin. FLTrust's root-gradient trust weighting nearly zeroes
// the ASR; FLAME only halves it here, because the adaptive boost shrinks
// until poisoned-data gradients pass as honest — clustering cannot separate
// what no longer looks different, so the bound below is a drop, not a floor.
func TestBackdoorASRDrops(t *testing.T) {
	meanASR := trainUnderBackdoor(t, aggregate.NewMean())
	fltrustASR := trainUnderBackdoor(t, aggregate.NewFLTrust())
	flameASR := trainUnderBackdoor(t, aggregate.NewFLAME(42))
	t.Logf("ASR: Mean %.1f%%, FLTrust %.1f%%, FLAME %.1f%%", meanASR, fltrustASR, flameASR)
	if meanASR < 50 {
		t.Errorf("Mean ASR %.1f%% — the backdoor never took against the undefended baseline, so the comparison is vacuous", meanASR)
	}
	for name, asr := range map[string]float64{"FLTrust": fltrustASR, "FLAME": flameASR} {
		if asr > meanASR-25 {
			t.Errorf("%s ASR %.1f%%, want at least 25 points below Mean's %.1f%%", name, asr, meanASR)
		}
	}
}

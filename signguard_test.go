package signguard_test

import (
	"math/rand"
	"strings"
	"testing"

	signguard "github.com/signguard/signguard"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/defense"
)

// TestPublicAPIEndToEnd exercises the façade: dataset → model → attack →
// SignGuard → simulation → evaluation, entirely through the root package.
func TestPublicAPIEndToEnd(t *testing.T) {
	ds, err := signguard.MNISTLike(1, 300, 100)
	if err != nil {
		t.Fatal(err)
	}
	lie, err := signguard.NewAttack("LIE", 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := signguard.NewSimulation(signguard.SimulationConfig{
		Dataset: ds,
		NewModel: func(rng *rand.Rand) (signguard.Classifier, error) {
			return signguard.NewMLP(rng, ds.FeatureDim(), 16, 10)
		},
		Rule:        signguard.NewSignGuard(1),
		Attack:      lie,
		Clients:     10,
		NumByz:      2,
		Rounds:      10,
		BatchSize:   8,
		LR:          0.05,
		Momentum:    0.9,
		WeightDecay: 5e-4,
		EvalEvery:   5,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BestAccuracy <= 0 {
		t.Errorf("best accuracy %v", res.BestAccuracy)
	}
	if _, _, ok := res.SelectionRates(); !ok {
		t.Error("SignGuard should report selection rates through the façade")
	}
}

// outsideModel is a model written against the façade alone: it spells
// every Classifier method through signguard's own names, and counts the
// stacked passes the engine runs through it.
type outsideModel struct {
	signguard.Classifier
	passes *int
}

func (m outsideModel) BatchedLossAndGrad(in signguard.ModelInput, labels, bounds []int, dst []float64) ([]signguard.SegmentGrad, error) {
	*m.passes++
	return m.Classifier.BatchedLossAndGrad(in, labels, bounds, dst)
}

// TestPublicAPIOutsideModel: a model defined outside the module satisfies
// signguard.Classifier and trains every client through its own method.
func TestPublicAPIOutsideModel(t *testing.T) {
	ds, err := signguard.MNISTLike(1, 300, 100)
	if err != nil {
		t.Fatal(err)
	}
	var passes int
	sim, err := signguard.NewSimulation(signguard.SimulationConfig{
		Dataset: ds,
		NewModel: func(rng *rand.Rand) (signguard.Classifier, error) {
			m, err := signguard.NewMLP(rng, ds.FeatureDim(), 16, 10)
			return outsideModel{m, &passes}, err
		},
		Rule:      signguard.NewSignGuard(1),
		Clients:   10,
		Rounds:    2,
		BatchSize: 8,
		LR:        0.05,
		Seed:      1,
		Workers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if passes == 0 {
		t.Error("the engine never called the outside model's BatchedLossAndGrad")
	}
}

// TestPublicAPIConstructors: the façade builds every catalog defense and
// attack by name, refuses an unknown name with the catalog's hint, and
// keeps the SignGuard family's direct constructors.
func TestPublicAPIConstructors(t *testing.T) {
	for _, name := range defense.Builtin().Names() {
		r, err := signguard.NewDefense(name, signguard.DefenseParams{N: 10, F: 2, Seed: 1})
		if err != nil || r.Name() == "" {
			t.Errorf("NewDefense(%q) = %v, %v", name, r, err)
		}
	}
	for _, name := range attack.Builtin().Names() {
		a, err := signguard.NewAttack(name, 0, 1)
		if err != nil || a.Name() == "" {
			t.Errorf("NewAttack(%q) = %v, %v", name, a, err)
		}
	}
	if _, err := signguard.NewDefense("multikrum", signguard.DefenseParams{N: 10, F: 2}); err == nil ||
		!strings.Contains(err.Error(), `did you mean "Multi-Krum"`) {
		t.Errorf("NewDefense(multikrum): %v, want the catalog's hint", err)
	}
	if _, err := signguard.NewAttack("lie", 0, 1); err == nil || !strings.Contains(err.Error(), `did you mean "LIE"`) {
		t.Errorf("NewAttack(lie): %v, want the catalog's hint", err)
	}
	for _, r := range []signguard.Rule{signguard.NewSignGuard(1), signguard.NewSignGuardSim(1), signguard.NewSignGuardDist(1)} {
		if r.Name() == "" {
			t.Error("rule with empty name")
		}
	}
	cfg := signguard.DefaultSignGuardConfig()
	if _, err := signguard.NewSignGuardFromConfig(cfg); err != nil {
		t.Errorf("config constructor: %v", err)
	}
}

// Example demonstrates the core workflow: train a federated model under a
// strong model-poisoning attack with SignGuard defending the aggregation.
// (No deterministic output — compiled as documentation.)
func Example() {
	ds, err := signguard.CIFARLike(1, 2000, 500)
	if err != nil {
		panic(err)
	}
	byzMean, err := signguard.NewAttack("ByzMean", 0, 1)
	if err != nil {
		panic(err)
	}
	sim, err := signguard.NewSimulation(signguard.SimulationConfig{
		Dataset: ds,
		NewModel: func(rng *rand.Rand) (signguard.Classifier, error) {
			return signguard.NewDeepImageCNN(rng, 3, 8, 8, 8, 16, 32, 10)
		},
		Rule:        signguard.NewSignGuardSim(1),
		Attack:      byzMean,
		Clients:     50,
		NumByz:      10,
		Rounds:      200,
		BatchSize:   8,
		LR:          0.03,
		Momentum:    0.9,
		WeightDecay: 5e-4,
		Seed:        1,
	})
	if err != nil {
		panic(err)
	}
	res, err := sim.Run()
	if err != nil {
		panic(err)
	}
	honest, malicious, _ := res.SelectionRates()
	_ = honest
	_ = malicious
	_ = res.BestAccuracy
}

package defense

import (
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/tensor"
)

func TestBuiltinNamesOrder(t *testing.T) {
	want := []string{
		"Mean", "TrMean", "Median", "GeoMed", "Multi-Krum", "Bulyan",
		"DnC", "SignGuard", "SignGuard-Sim", "SignGuard-Dist",
		"FLTrust", "FLAME", "MoM",
	}
	got := Builtin().Names()
	if len(got) != len(want) {
		t.Fatalf("Builtin has %d defenses, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestBuiltinConstructorsBuildAndAggregate(t *testing.T) {
	reg := Builtin()
	rng := tensor.NewRNG(3)
	grads := make([][]float64, 12)
	for i := range grads {
		grads[i] = tensor.RandNormal(rng, 40, 0, 1)
	}
	for _, name := range reg.Names() {
		rule, err := reg.Build(name, Params{N: 12, F: 2, Seed: 5})
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		if rule.Name() != name {
			t.Errorf("%s: rule reports name %q", name, rule.Name())
		}
		if sl, ok := aggregate.Unwrap(rule).(aggregate.ServerLearner); ok {
			// Server-learning rules aggregate against a root-data reference
			// gradient the engine installs each round.
			sl.SetServerGradient(grads[0])
		}
		res, err := rule.Aggregate(grads)
		if err != nil {
			t.Fatalf("%s: aggregate: %v", name, err)
		}
		if len(res.Gradient) != 40 {
			t.Errorf("%s: aggregate dimension %d", name, len(res.Gradient))
		}
	}
}

func TestKrumBulyanCapAssumedF(t *testing.T) {
	// n=8, f=4 and the paper's n=50 at 40% Byzantine violate both rules'
	// preconditions; the builders must cap.
	reg := Builtin()
	rng := tensor.NewRNG(8)
	for _, p := range []Params{{N: 8, F: 4, Seed: 2}, {N: 50, F: 20, Seed: 2}} {
		grads := make([][]float64, p.N)
		for i := range grads {
			grads[i] = tensor.RandNormal(rng, 10, 0, 1)
		}
		for _, name := range []string{"Multi-Krum", "Bulyan"} {
			rule, err := reg.Build(name, p)
			if err != nil {
				t.Fatalf("%s n=%d f=%d: %v", name, p.N, p.F, err)
			}
			if _, err := rule.Aggregate(grads); err != nil {
				t.Errorf("%s n=%d f=%d with capped f failed: %v", name, p.N, p.F, err)
			}
		}
	}
}

package attack_test

import (
	"math"
	"testing"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/tensor"
)

// craftBits builds spec with (param, seed) and returns the bits of what it
// crafts over 12 rounds of gc's fixed cohort and history, each round drawing
// from one RNG seeded by gc alone, followed (for a data poisoner) by the
// bits of its PoisonData output.
func craftBits(t *testing.T, spec attack.Spec, gc goldenContext, seed int64) []uint64 {
	t.Helper()
	att, err := spec.New(gc.params[spec.Name], seed)
	if err != nil {
		t.Fatalf("%s: build: %v", spec.Name, err)
	}
	rng := tensor.NewRNG(gc.seed)
	gen := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = tensor.RandNormal(rng, gc.dim, gc.center, gc.spread)
		}
		return out
	}
	benign, byzOwn := gen(gc.benign), gen(gc.byz)
	history := goldenHistory(gc.byz)
	var bits []uint64
	vec := func(v []float64) {
		bits = append(bits, uint64(len(v)))
		for _, x := range v {
			bits = append(bits, math.Float64bits(x))
		}
	}
	adv, craftRng := attack.Promote(att), tensor.NewRNG(gc.seed+100)
	for r := range history {
		out, err := adv.Craft(&attack.Context{
			Benign: benign, ByzOwn: byzOwn, Rng: craftRng,
			Round: r, History: history[:r],
		})
		if err != nil {
			t.Fatalf("%s round %d: %v", spec.Name, r, err)
		}
		bits = append(bits, uint64(len(out)))
		for _, g := range out {
			vec(g)
		}
	}
	if p, ok := att.(attack.DataPoisoner); ok {
		poisoned, err := p.PoisonData(goldenExamples(), 4)
		if err != nil {
			t.Fatalf("%s: PoisonData: %v", spec.Name, err)
		}
		for _, e := range poisoned {
			vec(e.Features)
			for _, tok := range e.Tokens {
				bits = append(bits, uint64(tok))
			}
			bits = append(bits, uint64(len(e.Tokens)), uint64(e.Label))
		}
	}
	return bits
}

// TestBuiltinIgnoresSeed: every catalog entry but TimeVarying crafts the
// same bits, and poisons the same data, whatever seed it is built with;
// only the Context's RNG varies its output. The campaign runner builds
// every attack with one seed derivation, TimeVarying's, and this is what
// makes that derivation reproduce every other entry's results. TimeVarying
// must differ, or the check could not see a seed being drawn from.
func TestBuiltinIgnoresSeed(t *testing.T) {
	for _, gc := range goldenContexts {
		for _, spec := range attack.Builtin().Values() {
			a, b := craftBits(t, spec, gc, 13), craftBits(t, spec, gc, 29)
			same := len(a) == len(b)
			for i := 0; same && i < len(a); i++ {
				same = a[i] == b[i]
			}
			if seeded := spec.Name == "TimeVarying"; same == seeded {
				t.Errorf("%s/%s: seeds 13 and 29 craft the same bits = %v, want %v", spec.Name, gc.name, same, !seeded)
			}
		}
	}
}

package attack_test

import (
	"testing"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/conformance"
	"github.com/signguard/signguard/internal/tensor"
)

// TestAttackConformance holds every catalog attack to the ownership rule:
// Craft keeps none of its Context's vectors past the call, because the
// simulator reuses their memory in the next round.
func TestAttackConformance(t *testing.T) {
	for _, spec := range attack.Builtin().Values() {
		t.Run(spec.Name, func(t *testing.T) {
			if err := conformance.CheckAttackInputRetention(spec, 29); err != nil {
				t.Error(err)
			}
		})
	}
}

// echoesBenign violates the ownership rule on purpose: every round it
// submits the first benign gradient of the round before, kept by
// reference.
type echoesBenign struct{ prev []float64 }

func (*echoesBenign) Name() string { return "EchoesBenign" }

func (a *echoesBenign) Craft(ctx *attack.Context) ([][]float64, error) {
	out := make([][]float64, len(ctx.ByzOwn))
	for i := range out {
		out[i] = tensor.Clone(ctx.ByzOwn[i])
		if a.prev != nil {
			out[i] = tensor.Clone(a.prev)
		}
	}
	a.prev = ctx.Benign[0]
	return out, nil
}

// TestConformanceCatchesAttackRetention is the test of the test: an attack
// that reads last round's gradient through a kept reference must fail.
func TestConformanceCatchesAttackRetention(t *testing.T) {
	spec := attack.Spec{Name: "EchoesBenign", New: func(float64, int64) (attack.Attack, error) {
		return &echoesBenign{}, nil
	}}
	if err := conformance.CheckAttackInputRetention(spec, 29); err == nil {
		t.Fatal("an attack that keeps its input passed the retention check")
	}
}

// flipsInPlace violates the read-only rule on purpose: it negates one of its
// Context's vectors where it lies and submits it.
type flipsInPlace struct{ benign bool }

func (*flipsInPlace) Name() string { return "FlipsInPlace" }

func (a *flipsInPlace) Craft(ctx *attack.Context) ([][]float64, error) {
	src := ctx.ByzOwn
	if a.benign {
		src = ctx.Benign
	}
	tensor.ScaleInPlace(src[0], -1)
	out := tensor.CloneAll(ctx.ByzOwn)
	out[0] = tensor.Clone(src[0])
	return out, nil
}

// TestConformanceCatchesAttackWritingItsInputs is the test of the test: an
// attack that writes a benign or a Byzantine-own vector of its Context
// must fail, because the round screen does not rescan them.
func TestConformanceCatchesAttackWritingItsInputs(t *testing.T) {
	for _, benign := range []bool{true, false} {
		spec := attack.Spec{Name: "FlipsInPlace", New: func(float64, int64) (attack.Attack, error) {
			return &flipsInPlace{benign: benign}, nil
		}}
		if err := conformance.CheckAttackInputRetention(spec, 29); err == nil {
			t.Errorf("an attack that writes its input (benign: %v) passed the check", benign)
		}
	}
}

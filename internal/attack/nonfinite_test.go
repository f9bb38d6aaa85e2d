package attack

import (
	"math"
	"testing"

	"github.com/signguard/signguard/internal/tensor"
)

func TestNonFiniteFullVector(t *testing.T) {
	rng := tensor.NewRNG(1)
	mk := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = tensor.RandNormal(rng, 16, 0, 1)
		}
		return out
	}
	ctx := &Context{Benign: mk(6), ByzOwn: mk(3), Rng: tensor.NewRNG(2)}
	out, err := NewNonFinite().Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != ctx.NumByz() {
		t.Fatalf("crafted %d gradients, want %d", len(out), ctx.NumByz())
	}
	for i, g := range out {
		for j, x := range g {
			if !math.IsNaN(x) {
				t.Fatalf("gradient %d coord %d = %v, want NaN", i, j, x)
			}
		}
	}
	// The honest inputs must be untouched.
	for _, g := range ctx.ByzOwn {
		if !tensor.AllFinite(g) {
			t.Fatal("Craft mutated ByzOwn")
		}
	}
}

func TestNonFiniteNames(t *testing.T) {
	if got := NewNonFinite().Name(); got != "NonFinite(NaN)" {
		t.Errorf("Name = %q", got)
	}
	var a NonFinite
	if got := a.Name(); got != "NonFinite(NaN)" {
		t.Errorf("zero-value Name = %q", got)
	}
}

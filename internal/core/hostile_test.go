package core

import (
	"math"
	"testing"

	"github.com/signguard/signguard/internal/tensor"
)

// hostileGrads returns a mostly-benign cohort with one NaN-poisoned
// gradient — the cheapest remote attack against the serving path.
func hostileGrads(n, d int, poison float64) [][]float64 {
	rng := tensor.NewRNG(1)
	grads := make([][]float64, n)
	for i := range grads {
		g := make([]float64, d)
		for j := range g {
			g[j] = rng.NormFloat64()
		}
		grads[i] = g
	}
	grads[n-1][0] = poison
	return grads
}

// One gradient the ingest screen passes (all coordinates 1e308, finite but
// with an overflowing norm) or refuses (a NaN or ±Inf coordinate): every
// variant aggregates without error, never selects it, and returns a finite
// aggregate. SignGuard-Sim's cosine feature for it is Inf/Inf = NaN; that
// row is left out of the clustering instead of failing the round.
func TestSignGuardLeavesOutOverflowingGradient(t *testing.T) {
	for _, tc := range []struct {
		name   string
		poison func([][]float64)
	}{
		{"all-1e308", func(grads [][]float64) {
			for j := range grads[len(grads)-1] {
				grads[len(grads)-1][j] = 1e308
			}
		}},
		{"NaN", func(grads [][]float64) { grads[len(grads)-1][0] = math.NaN() }},
		{"+Inf", func(grads [][]float64) { grads[len(grads)-1][0] = math.Inf(1) }},
		{"-Inf", func(grads [][]float64) { grads[len(grads)-1][0] = math.Inf(-1) }},
	} {
		for _, sim := range []Similarity{NoSimilarity, CosineSimilarity, DistanceSimilarity} {
			grads := hostileGrads(10, 64, 0)
			tc.poison(grads)
			cfg := DefaultConfig()
			cfg.Similarity = sim
			sg, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sg.Aggregate(grads)
			if err != nil {
				t.Errorf("%s, sim=%v: %v", tc.name, sim, err)
				continue
			}
			for _, i := range res.Selected {
				if i == len(grads)-1 {
					t.Errorf("%s, sim=%v: selected the poisoned gradient", tc.name, sim)
				}
			}
			if !tensor.AllFinite(res.Gradient) {
				t.Errorf("%s, sim=%v: non-finite aggregate", tc.name, sim)
			}
		}
	}
}

// hostileGrads' buffer through the full SignGuard rule (every variant): no
// panic, and any successful aggregate is finite.
func TestSignGuardHostileBufferNoPanic(t *testing.T) {
	for _, sim := range []Similarity{NoSimilarity, CosineSimilarity, DistanceSimilarity} {
		for _, poison := range []float64{math.NaN(), math.Inf(1)} {
			cfg := DefaultConfig()
			cfg.Similarity = sim
			sg, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sg.Aggregate(hostileGrads(10, 64, poison))
			if err != nil {
				continue // refusing the buffer is the expected outcome
			}
			if !tensor.AllFinite(res.Gradient) {
				t.Errorf("sim=%v poison=%v: non-finite aggregate", sim, poison)
			}
		}
	}
}

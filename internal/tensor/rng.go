package tensor

import "math/rand"

// NewRNG returns a deterministic pseudo-random source for the given seed.
// Every stochastic component in this repository takes an explicit *rand.Rand
// so that simulations are reproducible and there is no mutable global state.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// RandNormal fills a new length-n vector with N(mean, std²) samples.
func RandNormal(rng *rand.Rand, n int, mean, std float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mean + std*rng.NormFloat64()
	}
	return out
}

// RandUnitVector returns a uniformly random direction in R^n.
func RandUnitVector(rng *rand.Rand, n int) []float64 {
	for {
		v := RandNormal(rng, n, 0, 1)
		if norm := Norm(v); norm > 1e-12 {
			ScaleInPlace(v, 1/norm)
			return v
		}
	}
}

// SampleIndices returns k distinct indices drawn uniformly from [0, n),
// in random order. It panics if k > n or either argument is negative.
func SampleIndices(rng *rand.Rand, n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("tensor: SampleIndices arguments out of range")
	}
	perm := rng.Perm(n)
	return perm[:k]
}

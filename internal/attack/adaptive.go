package attack

import (
	"math/rand"
	"sort"

	"github.com/signguard/signguard/internal/tensor"
)

// SignKeeping is an adaptive white-box attack on SignGuard itself,
// implementing the paper's future-work discussion ("white-box and adaptive
// attacks"): the adversary knows the defense clusters on sign statistics
// and crafts a malicious gradient with *exactly* the sign pattern of the
// honest mean — so the sign features are indistinguishable — while
// shuffling the magnitudes within each sign class to corrupt the update
// direction. The crafted gradient also preserves the mean's norm, so the
// norm filter passes it.
//
// Only the similarity features (SignGuard-Sim / -Dist) can expose it,
// which is precisely the trade-off the paper's Section IV-B discusses.
type SignKeeping struct{}

var _ Attack = (*SignKeeping)(nil)

// NewSignKeeping returns the adaptive sign-preserving attack.
func NewSignKeeping() *SignKeeping { return &SignKeeping{} }

// Name implements Attack.
func (*SignKeeping) Name() string { return "SignKeep" }

// Craft implements Attack: every Byzantine client sends the honest mean
// with magnitudes permuted within its positive and negative coordinate
// classes (zeros stay in place), each client with its own permutation
// (one shuffling pass).
func (*SignKeeping) Craft(ctx *Context) ([][]float64, error) {
	if err := ctx.validate(); err != nil {
		return nil, err
	}
	mean, err := tensor.Mean(ctx.AllHonest())
	if err != nil {
		return nil, err
	}
	out := make([][]float64, ctx.NumByz())
	for i := range out {
		gm := tensor.Clone(mean)
		shuffleWithinSignClasses(ctx.Rng, gm)
		out[i] = gm
	}
	return out, nil
}

// shuffleWithinSignClasses permutes the magnitudes of the strictly
// positive entries among the positive positions and likewise for the
// negative entries, preserving the sign of every coordinate (and therefore
// the exact sign statistics and the multiset of magnitudes — hence the
// norm).
func shuffleWithinSignClasses(rng *rand.Rand, g []float64) {
	var posIdx, negIdx []int
	for j, v := range g {
		switch {
		case v > 0:
			posIdx = append(posIdx, j)
		case v < 0:
			negIdx = append(negIdx, j)
		}
	}
	permuteValues(rng, g, posIdx)
	permuteValues(rng, g, negIdx)
}

// permuteValues shuffles g's values at the given index set in place.
func permuteValues(rng *rand.Rand, g []float64, idx []int) {
	if len(idx) < 2 {
		return
	}
	vals := make([]float64, len(idx))
	for i, j := range idx {
		vals[i] = g[j]
	}
	rng.Shuffle(len(vals), func(a, b int) { vals[a], vals[b] = vals[b], vals[a] })
	// Deterministic ordering of the index set keeps results reproducible
	// regardless of how the caller built it.
	sort.Ints(idx)
	for i, j := range idx {
		g[j] = vals[i]
	}
}

package attack

import (
	"errors"

	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// minMaxSum is the shared engine of the Min-Max and Min-Sum attacks. The
// malicious gradient is gm = avg(honest) + γ·∇p, along the perturbation
// ∇p = −std(honest) (Shejwalkar & Houmansadr's inverse-std direction, the
// one the paper evaluates), with the largest γ that still satisfies the
// attack's distance constraint, found by doubling then bisection (the
// "halving search" of the original paper). All Byzantine clients send the
// same gm.
//
// The constraint threshold (a function of the honest gradients only) is
// computed once per round; each bisection probe then only measures the
// candidate's distances to the honest set. Both go through the
// one-to-many distance kernel and fold its output in index order.
type minMaxSum struct {
	// bound computes the round's constraint threshold from the honest
	// gradients; d2 is scratch of len(honest).
	bound func(honest [][]float64, d2 []float64) (float64, error)
	// measure folds the candidate's squared distances to the honest
	// gradients into the statistic compared against the bound.
	measure func(d2 []float64) float64
}

// Craft computes the attack vector and replicates it across the cohort.
func (a *minMaxSum) Craft(ctx *Context) ([][]float64, error) {
	if err := ctx.validate(); err != nil {
		return nil, err
	}
	honest := ctx.AllHonest()
	avg, err := tensor.Mean(honest)
	if err != nil {
		return nil, err
	}
	_, dir, err := stats.CoordinateMeanStd(honest)
	if err != nil {
		return nil, err
	}
	tensor.ScaleInPlace(dir, -1)
	d2 := make([]float64, len(honest))
	threshold, err := a.bound(honest, d2)
	if err != nil {
		return nil, err
	}

	feasible := func(gamma float64) (bool, error) {
		gm := tensor.Clone(avg)
		if err := tensor.Axpy(gm, gamma, dir); err != nil {
			return false, err
		}
		if err := tensor.SquaredDistancesTo(d2, gm, honest); err != nil {
			return false, err
		}
		return a.measure(d2) <= threshold, nil
	}

	ok, err := feasible(0)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errors.New("attack: min-max/min-sum constraint infeasible at γ=0")
	}
	// Doubling phase: find an infeasible upper bound.
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		ok, err := feasible(hi)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		lo, hi = hi, hi*2
	}
	// Bisection phase.
	for i := 0; i < 40; i++ {
		mid := 0.5 * (lo + hi)
		ok, err := feasible(mid)
		if err != nil {
			return nil, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	gm := tensor.Clone(avg)
	if err := tensor.Axpy(gm, lo, dir); err != nil {
		return nil, err
	}
	out := make([][]float64, ctx.NumByz())
	for i := range out {
		out[i] = tensor.Clone(gm)
	}
	return out, nil
}

// MinMax keeps the malicious gradient within the maximum pairwise distance
// of the honest gradients (Eq. 14): max_i ||gm − g_i|| ≤ max_{i,j} ||g_i − g_j||.
type MinMax struct {
	engine minMaxSum
}

var _ Attack = (*MinMax)(nil)

// NewMinMax returns the Min-Max attack.
func NewMinMax() *MinMax {
	return &MinMax{engine: minMaxSum{bound: maxPairwiseSq, measure: maxOf}}
}

// maxPairwiseSq is the Min-Max constraint threshold: the largest squared
// pairwise distance among the honest gradients (Eq. 14's right-hand side).
func maxPairwiseSq(honest [][]float64, d2 []float64) (float64, error) {
	var maxPair float64
	for i, g := range honest {
		row := d2[:len(honest)-i-1]
		if err := tensor.SquaredDistancesTo(row, g, honest[i+1:]); err != nil {
			return 0, err
		}
		if m := maxOf(row); m > maxPair {
			maxPair = m
		}
	}
	return maxPair, nil
}

// maxOf is the Min-Max candidate statistic over the squared distances from
// gm to the honest gradients: the largest one, skipping NaN like the
// comparison it replaces.
func maxOf(d2 []float64) float64 {
	var m float64
	for _, x := range d2 {
		if x > m {
			m = x
		}
	}
	return m
}

// Name implements Attack.
func (*MinMax) Name() string { return "Min-Max" }

// Craft implements Attack.
func (m *MinMax) Craft(ctx *Context) ([][]float64, error) { return m.engine.Craft(ctx) }

// MinSum keeps the malicious gradient's total squared distance to the
// honest gradients within the worst honest gradient's total (Eq. 15):
// Σ_i ||gm − g_i||² ≤ max_i Σ_j ||g_i − g_j||².
type MinSum struct {
	engine minMaxSum
}

var _ Attack = (*MinSum)(nil)

// NewMinSum returns the Min-Sum attack.
func NewMinSum() *MinSum {
	return &MinSum{engine: minMaxSum{bound: maxTotalSq, measure: sumOf}}
}

// maxTotalSq is the Min-Sum constraint threshold: the largest total
// squared distance from one honest gradient to all of them (Eq. 15's
// right-hand side).
func maxTotalSq(honest [][]float64, d2 []float64) (float64, error) {
	var maxTotal float64
	for _, g := range honest {
		if err := tensor.SquaredDistancesTo(d2, g, honest); err != nil {
			return 0, err
		}
		if total := sumOf(d2); total > maxTotal {
			maxTotal = total
		}
	}
	return maxTotal, nil
}

// sumOf is the Min-Sum candidate statistic: the total of the squared
// distances from gm to the honest gradients, summed in index order.
func sumOf(d2 []float64) float64 {
	var s float64
	for _, x := range d2 {
		s += x
	}
	return s
}

// Name implements Attack.
func (*MinSum) Name() string { return "Min-Sum" }

// Craft implements Attack.
func (m *MinSum) Craft(ctx *Context) ([][]float64, error) { return m.engine.Craft(ctx) }

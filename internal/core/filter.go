// Package core implements SignGuard, the paper's contribution: a robust
// gradient aggregation framework that screens the gradients received in a
// federated-learning round through multiple collaborative filters — a
// norm-based thresholding filter and a sign-statistics clustering filter —
// and aggregates the intersection of their outputs with norm clipping
// (Algorithm 2, Fig. 3).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/signguard/signguard/internal/stats"
)

// FilterContext is the shared per-round state the filters operate on.
type FilterContext struct {
	// Grads holds the received gradients (one per client, anonymous).
	Grads [][]float64
	// Norms caches the l2 norm of each gradient.
	Norms []float64
	// MedianNorm is the median of Norms — the reference magnitude M.
	MedianNorm float64
	// Reference is the previous round's aggregated gradient, used as the
	// "correct" reference by the similarity features; nil in the first
	// round.
	Reference []float64
	// Rng drives the randomized coordinate selection and clustering seeds.
	Rng *rand.Rand
}

// NewFilterContext precomputes the round state for the given gradients.
func NewFilterContext(grads [][]float64, prevAgg []float64, rng *rand.Rand) (*FilterContext, error) {
	if len(grads) == 0 {
		return nil, errors.New("core: no gradients")
	}
	d := len(grads[0])
	norms := make([]float64, len(grads))
	for i, g := range grads {
		if len(g) != d {
			return nil, fmt.Errorf("core: gradient %d has %d dims, want %d", i, len(g), d)
		}
		var s float64
		for _, x := range g {
			s += x * x
		}
		norms[i] = math.Sqrt(s)
	}
	med, err := stats.Median(norms)
	if err != nil {
		return nil, err
	}
	return &FilterContext{
		Grads:      grads,
		Norms:      norms,
		MedianNorm: med,
		Reference:  prevAgg,
		Rng:        rng,
	}, nil
}

// Filter inspects the round's gradients and returns the indices it trusts.
// SignGuard runs several filters and keeps the intersection.
type Filter interface {
	// Name returns a short identifier for reports.
	Name() string
	// Apply returns the indices of the gradients the filter accepts,
	// in ascending order.
	Apply(ctx *FilterContext) ([]int, error)
}

// NormThresholdFilter is Algorithm 2, step 1: accept gradient i iff
// L ≤ ||g_i|| / M ≤ R, where M is the median norm. The paper uses a loose
// lower bound (small gradients do little harm) and a strict upper bound
// (a significantly large gradient is malicious): L=0.1, R=3.0.
type NormThresholdFilter struct {
	Lower, Upper float64
}

var _ Filter = (*NormThresholdFilter)(nil)

// NewNormThresholdFilter returns the norm filter with bounds [lower, upper].
func NewNormThresholdFilter(lower, upper float64) *NormThresholdFilter {
	return &NormThresholdFilter{Lower: lower, Upper: upper}
}

// Name implements Filter.
func (*NormThresholdFilter) Name() string { return "norm-threshold" }

// Apply implements Filter.
func (f *NormThresholdFilter) Apply(ctx *FilterContext) ([]int, error) {
	if f.Lower < 0 || f.Upper <= 0 || f.Lower >= f.Upper {
		return nil, fmt.Errorf("core: norm threshold bounds [%v, %v] invalid", f.Lower, f.Upper)
	}
	m := ctx.MedianNorm
	if m == 0 {
		// All-zero median norm: every gradient with zero norm is "at the
		// median"; accept those, reject the rest (they are outliers by
		// construction).
		var keep []int
		for i, n := range ctx.Norms {
			if n == 0 {
				keep = append(keep, i)
			}
		}
		if len(keep) == 0 {
			return nil, errors.New("core: norm filter rejected all gradients (zero median)")
		}
		return keep, nil
	}
	keep := make([]int, 0, len(ctx.Norms))
	for i, n := range ctx.Norms {
		ratio := n / m
		if ratio >= f.Lower && ratio <= f.Upper {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		return nil, errors.New("core: norm filter rejected all gradients")
	}
	return keep, nil
}

package aggregate

import (
	"math"

	"github.com/signguard/signguard/internal/parallel"
	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// MedianOfMeans is the median-of-means neighborhood filter of FedPG-BR (Fan
// et al., NeurIPS'21): with a distance threshold r, the candidate set S
// holds every gradient with a strict majority of the cohort within r; the
// MoM center μ is the member of S closest to S's mean; the survivors are
// all gradients within r of μ, and the aggregate is their average. An
// empty candidate set degrades to plain averaging (the filter has no
// majority to anchor on). The threshold r is derived from the data as the
// median pairwise distance of the round's gradients.
type MedianOfMeans struct {
	// Workers bounds the kernel parallelism (0 = automatic, 1 = sequential);
	// the output is byte-identical for any value.
	Workers int
}

var (
	_ Rule          = (*MedianOfMeans)(nil)
	_ WorkersSetter = (*MedianOfMeans)(nil)
)

// NewMedianOfMeans returns a MoM filter.
func NewMedianOfMeans() *MedianOfMeans {
	return &MedianOfMeans{}
}

// Name implements Rule.
func (*MedianOfMeans) Name() string { return "MoM" }

// SetWorkers implements WorkersSetter.
func (m *MedianOfMeans) SetWorkers(n int) { m.Workers = n }

// Aggregate implements Rule.
func (m *MedianOfMeans) Aggregate(grads [][]float64) (*Result, error) {
	if _, err := validate(grads); err != nil {
		return nil, err
	}
	n := len(grads)
	workers := parallel.Resolve(m.Workers)
	dist, err := stats.PairwiseDistancesWorkers(grads, workers)
	if err != nil {
		return nil, err
	}

	// The radius is the median of the strict upper-triangle pairwise
	// distances (every gradient is trivially within 0 of itself, so
	// self-distances would only dilute the estimate).
	pairs := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, dist[i][j])
		}
	}
	if len(pairs) == 0 {
		// A single gradient is its own aggregate.
		return &Result{Gradient: tensor.Clone(grads[0]), Selected: []int{0}}, nil
	}
	radius, err := stats.Median(pairs)
	if err != nil {
		return nil, err
	}

	// Candidate set S: gradients with a strict cohort majority within the
	// threshold (the point itself counts, as in the reference algorithm).
	candidates := neighborhoodMajority(dist, radius)
	if len(candidates) == 0 {
		// No anchor: degrade to the plain mean of everyone.
		g, err := tensor.MeanWorkers(grads, workers)
		if err != nil {
			return nil, err
		}
		return &Result{Gradient: g, Selected: allIndices(n)}, nil
	}

	// μ = the member of S closest to mean(S) — the median-of-means center.
	sGrads := make([][]float64, len(candidates))
	for j, i := range candidates {
		sGrads[j] = grads[i]
	}
	meanS, err := tensor.MeanWorkers(sGrads, workers)
	if err != nil {
		return nil, err
	}
	toMean := make([]float64, len(sGrads))
	if err := tensor.SquaredDistancesTo(toMean, meanS, sGrads); err != nil {
		return nil, err
	}
	center, best := -1, math.Inf(1)
	for j, i := range candidates {
		if d := math.Sqrt(toMean[j]); d < best {
			center, best = i, d
		}
	}
	if center < 0 {
		// Every candidate sat at a non-finite distance from the mean: the
		// buffer is hostile beyond anchoring.
		return nil, ErrNonFiniteAggregate
	}

	// Survivors: everything within the threshold of μ.
	survivors := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if dist[i][center] <= radius {
			survivors = append(survivors, i)
		}
	}
	if len(survivors) == 0 {
		// Unreachable with a finite radius (μ is within 0 of itself), but a
		// NaN radius from a hostile buffer lands here.
		return nil, ErrNonFiniteAggregate
	}
	kept := make([][]float64, len(survivors))
	for j, i := range survivors {
		kept[j] = grads[i]
	}
	g, err := tensor.MeanWorkers(kept, workers)
	if err != nil {
		return nil, err
	}
	return &Result{Gradient: g, Selected: survivors}, nil
}

// neighborhoodMajority returns the indices whose row of the distance matrix
// has a strict majority of entries (self included) within radius.
func neighborhoodMajority(dist [][]float64, radius float64) []int {
	n := len(dist)
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		neighbors := 0
		for j := 0; j < n; j++ {
			if dist[i][j] <= radius {
				neighbors++
			}
		}
		if 2*neighbors > n {
			out = append(out, i)
		}
	}
	return out
}

package aggregate

import (
	"fmt"
	"math/rand"

	"github.com/signguard/signguard/internal/cluster"
	"github.com/signguard/signguard/internal/parallel"
	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// FLAME is the clustering defense of Nguyen et al. (USENIX Sec'22),
// simplified to the gradient setting: direction-normalize every update
// (cosine geometry), cluster the directions with k-means into flameClusters
// groups, keep the largest cluster as the benign majority, clip the kept
// updates to their median norm and average. The original's calibrated
// noise term is left out: the catalog runs FLAME without noise. Build one
// with NewFLAME.
type FLAME struct {
	// Workers bounds the kernel parallelism (0 = automatic, 1 = sequential);
	// the output is byte-identical for any value.
	Workers int

	// rng drives the k-means++ seeding; the clusterer consumes it
	// sequentially regardless of the worker count.
	rng *rand.Rand
}

var (
	_ Rule          = (*FLAME)(nil)
	_ WorkersSetter = (*FLAME)(nil)
)

// flameClusters is FLAME's k-means cluster count: benign vs outlier.
const flameClusters = 2

// NewFLAME returns a FLAME rule seeded deterministically.
func NewFLAME(seed int64) *FLAME {
	return &FLAME{rng: tensor.NewRNG(seed)}
}

// Name implements Rule.
func (*FLAME) Name() string { return "FLAME" }

// SetWorkers implements WorkersSetter.
func (f *FLAME) SetWorkers(n int) { f.Workers = n }

// Aggregate implements Rule.
func (f *FLAME) Aggregate(grads [][]float64) (*Result, error) {
	if _, err := validate(grads); err != nil {
		return nil, err
	}
	workers := parallel.Resolve(f.Workers)

	// Unit-normalize so k-means' Euclidean geometry matches cosine
	// distance: ‖u−v‖² = 2(1−cos(u,v)) on the unit sphere. Zero-norm
	// updates stay at the origin (no direction to compare).
	unit := make([][]float64, len(grads))
	parallel.For(workers, len(grads), func(_, start, end int) {
		for i := start; i < end; i++ {
			u := tensor.Clone(grads[i])
			if n := tensor.Norm(u); n > 0 {
				tensor.ScaleInPlace(u, 1/n)
			}
			unit[i] = u
		}
	})

	// The clusterer consumes the rule's RNG sequentially (k-means++
	// restarts), so clustering is identical for any worker count. Hostile
	// buffers surface as ErrNonFinitePoints — an error, never NaN output.
	res, err := cluster.KMeans(f.rng, unit, flameClusters)
	if err != nil {
		return nil, fmt.Errorf("aggregate: FLAME clustering: %w", err)
	}

	// The benign majority is the largest cluster; ties resolve to the
	// lowest cluster index for determinism.
	kept := res.Members(res.Largest())

	// Clip the admitted updates to their median norm, then average.
	norms := make([]float64, len(kept))
	for j, i := range kept {
		norms[j] = tensor.Norm(grads[i])
	}
	bound, err := stats.Median(norms)
	if err != nil {
		return nil, err
	}
	clipped := make([][]float64, len(kept))
	parallel.For(workers, len(kept), func(_, start, end int) {
		for j := start; j < end; j++ {
			c := tensor.Clone(grads[kept[j]])
			tensor.ClipNorm(c, bound)
			clipped[j] = c
		}
	})
	g, err := tensor.MeanWorkers(clipped, workers)
	if err != nil {
		return nil, err
	}
	return &Result{Gradient: g, Selected: kept}, nil
}

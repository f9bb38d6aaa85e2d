package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/signguard/signguard/internal/cluster"
	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// Similarity selects the optional extra feature appended to the sign
// statistics (Section IV-B): the plain SignGuard uses none; SignGuard-Sim
// adds the cosine similarity to a reference gradient; SignGuard-Dist adds
// the Euclidean distance to it.
type Similarity int

const (
	// NoSimilarity: features are the sign statistics only (plain SignGuard).
	NoSimilarity Similarity = iota + 1
	// CosineSimilarity appends cos(g_i, reference) (SignGuard-Sim).
	CosineSimilarity
	// DistanceSimilarity appends ||g_i − reference|| normalized by the
	// median such distance (SignGuard-Dist).
	DistanceSimilarity
)

func (s Similarity) String() string {
	switch s {
	case NoSimilarity:
		return "none"
	case CosineSimilarity:
		return "cosine"
	case DistanceSimilarity:
		return "distance"
	default:
		return fmt.Sprintf("Similarity(%d)", int(s))
	}
}

// ClusterAlgo selects the unsupervised model of the sign filter.
type ClusterAlgo int

const (
	// MeanShiftAlgo adapts the number of clusters (paper default).
	MeanShiftAlgo ClusterAlgo = iota + 1
	// KMeansAlgo uses 2-means — sufficient when all malicious clients send
	// an identical vector.
	KMeansAlgo
)

func (c ClusterAlgo) String() string {
	switch c {
	case MeanShiftAlgo:
		return "mean-shift"
	case KMeansAlgo:
		return "kmeans"
	default:
		return fmt.Sprintf("ClusterAlgo(%d)", int(c))
	}
}

// SignClusterFilter is Algorithm 2, step 2: compute sign statistics of each
// gradient on a random coordinate subset (optionally augmented with a
// similarity feature), cluster the feature rows, and trust the largest
// cluster.
type SignClusterFilter struct {
	// CoordFraction is the fraction of coordinates sampled for the sign
	// statistics (paper default 0.1).
	CoordFraction float64
	// Similarity selects the optional extra feature.
	Similarity Similarity
	// Algo selects the clustering algorithm (default MeanShiftAlgo).
	Algo ClusterAlgo
	// Bandwidth overrides the Mean-Shift bandwidth; <= 0 auto-estimates.
	Bandwidth float64
}

var _ Filter = (*SignClusterFilter)(nil)

// NewSignClusterFilter returns the sign-statistics clustering filter with
// the paper's defaults.
func NewSignClusterFilter(coordFraction float64, sim Similarity) *SignClusterFilter {
	return &SignClusterFilter{
		CoordFraction: coordFraction,
		Similarity:    sim,
		Algo:          MeanShiftAlgo,
	}
}

// Name implements Filter.
func (f *SignClusterFilter) Name() string {
	return "sign-cluster(" + f.Similarity.String() + ")"
}

// Features computes the per-gradient feature rows the filter clusters.
// Exposed for analysis, tests and the Fig. 2 experiment.
func (f *SignClusterFilter) Features(ctx *FilterContext) ([][]float64, error) {
	if len(ctx.Grads) == 0 {
		return nil, errors.New("core: no gradients for features")
	}
	d := len(ctx.Grads[0])
	frac := f.CoordFraction
	if frac <= 0 || frac > 1 {
		frac = 0.1
	}
	idx, err := stats.SampleCoordinates(ctx.Rng, d, frac)
	if err != nil {
		return nil, err
	}

	sim := f.Similarity
	if sim == 0 {
		sim = NoSimilarity
	}
	ref := ctx.Reference
	if sim != NoSimilarity && ref == nil {
		// First round: no previous aggregate. The paper suggests pairwise
		// medians as the fallback "correct" gradient; the coordinate-wise
		// median is the equivalent robust reference and cheaper.
		ref, err = stats.CoordinateMedian(ctx.Grads)
		if err != nil {
			return nil, err
		}
	}

	features := make([][]float64, len(ctx.Grads))
	dists := make([]float64, len(ctx.Grads))
	if sim == DistanceSimilarity {
		if err := tensor.SquaredDistancesTo(dists, ref, ctx.Grads); err != nil {
			return nil, err
		}
		for i, d2 := range dists {
			dists[i] = math.Sqrt(d2)
		}
	}
	for i, g := range ctx.Grads {
		ss, err := stats.ComputeSignStatsAt(g, idx)
		if err != nil {
			return nil, err
		}
		row := ss.Vector()
		switch sim {
		case CosineSimilarity:
			c, err := stats.CosineSimilarity(g, ref)
			if err != nil {
				return nil, err
			}
			// Map cosine from [-1,1] onto [0,1] so every feature lives on
			// the same fixed scale as the sign proportions. Data-dependent
			// rescaling (e.g. z-scoring) is deliberately avoided: it
			// amplifies columns that carry no signal, and a cohort of
			// identical malicious vectors can then out-cluster the benign
			// majority.
			row = append(row, (c+1)/2)
		case DistanceSimilarity:
			row = append(row, dists[i]) // normalized below once the median is known
		}
		features[i] = row
	}
	if sim == DistanceSimilarity {
		med, err := stats.Median(dists)
		if err != nil {
			return nil, err
		}
		if med <= 0 {
			med = 1
		}
		for i := range features {
			last := len(features[i]) - 1
			// Distance ratio to the median, clipped and mapped to [0,1]:
			// benign gradients sit near 1/3, outliers saturate at 1.
			r := features[i][last] / med
			if r > 3 {
				r = 3
			}
			features[i][last] = r / 3
		}
	}
	// A non-finite gradient leaks NaN into the similarity features (the
	// sign proportions themselves are robust — NaN counts as a zero sign —
	// but cosine and distance are not), and NaN feature rows poison every
	// clustering algorithm downstream. Fail here, where the offending
	// gradient index is still known.
	for i, row := range features {
		if !tensor.AllFinite(row) {
			return nil, fmt.Errorf("core: non-finite feature row for gradient %d (non-finite input gradient)", i)
		}
	}
	return features, nil
}

// Apply implements Filter.
func (f *SignClusterFilter) Apply(ctx *FilterContext) ([]int, error) {
	features, err := f.Features(ctx)
	if err != nil {
		return nil, err
	}
	var res *cluster.Result
	switch f.Algo {
	case KMeansAlgo:
		km := cluster.NewKMeans(2)
		res, err = km.Cluster(ctx.Rng, features)
	default:
		ms := cluster.NewMeanShift(f.Bandwidth)
		// Merging modes within a full bandwidth keeps a homogeneous benign
		// majority from fragmenting into several small clusters, which an
		// unanimous malicious cohort (a single ultra-tight mode) could
		// otherwise outnumber.
		ms.MergeRadiusFactor = 1.0
		res, err = ms.Cluster(features)
	}
	if err != nil {
		return nil, fmt.Errorf("core: sign clustering: %w", err)
	}
	// Check the result before dereferencing it: a clusterer must never
	// return (nil, nil), but a defense layer does not bet the server's
	// liveness on that contract (KMeans once did exactly that when every
	// restart's inertia went NaN).
	if res == nil {
		return nil, errors.New("core: clustering returned no result")
	}
	largest := res.Largest()
	if largest < 0 {
		return nil, errors.New("core: clustering produced no clusters")
	}
	return res.Members(largest), nil
}

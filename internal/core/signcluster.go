package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

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

// signFeatures is Algorithm 2, step 2's input: the sign statistics of each
// gradient on a random coordinate subset (a fraction frac of the
// coordinates, drawn from rng), optionally augmented with a similarity
// feature against ref, the previous round's aggregate (nil in the first
// round). A non-finite gradient can leave a non-finite row; signCluster
// screens those out.
func signFeatures(grads [][]float64, ref []float64, frac float64, sim Similarity, rng *rand.Rand) ([][]float64, error) {
	idx, err := stats.SampleCoordinates(rng, len(grads[0]), frac)
	if err != nil {
		return nil, err
	}
	if sim == 0 {
		sim = NoSimilarity
	}
	if sim != NoSimilarity && ref == nil {
		// First round: no previous aggregate. The paper suggests pairwise
		// medians as the fallback "correct" gradient; the coordinate-wise
		// median is the equivalent robust reference and cheaper.
		ref, err = stats.CoordinateMedian(grads)
		if err != nil {
			return nil, err
		}
	}

	features := make([][]float64, len(grads))
	dists := make([]float64, len(grads))
	if sim == DistanceSimilarity {
		if err := tensor.SquaredDistancesTo(dists, ref, grads); err != nil {
			return nil, err
		}
		for i, d2 := range dists {
			dists[i] = math.Sqrt(d2)
		}
	}
	for i, g := range grads {
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
	return features, nil
}

// signCluster is Algorithm 2, step 2's decision: Mean-Shift over the
// feature rows, trusting the largest cluster. It returns the indices of
// that cluster's rows, ascending. dist is the rule's distance scratch.
//
// The sign proportions are robust to any input (NaN counts as a zero sign),
// but cosine and distance are not: a NaN coordinate, or finite coordinates
// whose norm overflows (cos = Inf/Inf), leave a non-finite row, which
// Mean-Shift refuses. Such a row is left out of the clustering and never
// kept, so one hostile gradient cannot fail the round; the filter errors
// only when no row is finite.
func signCluster(features [][]float64, dist *stats.Pairwise) ([]int, error) {
	rows := make([]int, 0, len(features))
	points := make([][]float64, 0, len(features))
	for i, row := range features {
		if tensor.AllFinite(row) {
			rows = append(rows, i)
			points = append(points, row)
		}
	}
	if len(points) == 0 {
		return nil, errors.New("core: no finite feature row (non-finite input gradients)")
	}
	res, err := cluster.MeanShift(points, dist)
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
	kept := res.Members(largest)
	for j, p := range kept {
		kept[j] = rows[p]
	}
	return kept, nil
}

// Package cluster provides the unsupervised clustering algorithms of the
// defenses: Mean-Shift, which adapts the number of clusters (SignGuard's
// sign filter), and KMeans (FLAME), plus small utilities for selecting the
// majority cluster.
package cluster

import (
	"errors"
	"fmt"

	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// ErrNoPoints is returned when clustering is requested over an empty set.
var ErrNoPoints = errors.New("cluster: no points")

// Mean-Shift's fixed settings: a seed point has converged once a shift
// moves it less than meanShiftTol, and gives up after meanShiftMaxIter
// shifts.
const (
	meanShiftMaxIter = 100
	meanShiftTol     = 1e-4
)

// Result is the outcome of a clustering run.
type Result struct {
	// Labels assigns each input point a cluster id in [0, len(Centers)).
	Labels []int
	// Centers holds one representative (mode or centroid) per cluster.
	Centers [][]float64
	// Sizes[c] is the number of points with label c.
	Sizes []int
}

// Largest returns the id of the cluster with the most members, breaking
// ties toward the smaller id (deterministic).
func (r *Result) Largest() int {
	best, bestSize := -1, -1
	for c, s := range r.Sizes {
		if s > bestSize {
			best, bestSize = c, s
		}
	}
	return best
}

// Members returns the indices of the points assigned to cluster c.
func (r *Result) Members(c int) []int {
	var out []int
	for i, l := range r.Labels {
		if l == c {
			out = append(out, i)
		}
	}
	return out
}

// EstimateBandwidth returns a data-driven bandwidth: the median non-zero
// pairwise distance between points, with a floor to keep the kernel
// non-degenerate when many points coincide.
func EstimateBandwidth(points [][]float64) (float64, error) {
	if len(points) == 0 {
		return 0, ErrNoPoints
	}
	dists, err := stats.PairwiseDistances(points)
	if err != nil {
		return 0, err
	}
	var flat []float64
	for i := range dists {
		for j := i + 1; j < len(dists); j++ {
			if d := dists[i][j]; d > 0 {
				flat = append(flat, d)
			}
		}
	}
	if len(flat) == 0 {
		// All points identical: any positive bandwidth yields one cluster.
		return 1e-3, nil
	}
	med, err := stats.Median(flat)
	if err != nil {
		return 0, err
	}
	if med < 1e-8 {
		med = 1e-8
	}
	return med, nil
}

// MeanShift clusters the points with a flat kernel of radius h =
// EstimateBandwidth(points): each point ascends to the mean of its
// neighbours within h until it converges to a mode, and modes within one
// bandwidth of an earlier cluster's centre join it. Merging within a full
// bandwidth keeps a homogeneous benign majority from fragmenting into
// several small clusters, which a unanimous malicious cohort (a single
// ultra-tight mode) could otherwise outnumber. Each cluster's centre is its
// first mode.
func MeanShift(points [][]float64) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, ErrNoPoints
	}
	d := len(points[0])
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("cluster: point %d has %d dims, want %d", i, len(p), d)
		}
		// A NaN coordinate zeroes every kernel weight for its point (all
		// distance comparisons fail), silently isolating it as its own
		// mode and corrupting the bandwidth estimate; an Inf coordinate
		// overflows the squared distances. Refuse instead of degrading.
		if !tensor.AllFinite(p) {
			return nil, fmt.Errorf("%w: point %d has a non-finite coordinate", ErrNonFinitePoints, i)
		}
	}
	h, err := EstimateBandwidth(points)
	if err != nil {
		return nil, err
	}
	modes := make([][]float64, n)
	for i := range points {
		modes[i] = shift(points, points[i], h)
	}
	centers, labels := mergeModes(modes, h)
	sizes := make([]int, len(centers))
	for _, l := range labels {
		sizes[l]++
	}
	return &Result{Labels: labels, Centers: centers, Sizes: sizes}, nil
}

// shift performs the mean-shift ascent for one seed point.
func shift(points [][]float64, seed []float64, h float64) []float64 {
	x := tensor.Clone(seed)
	next := make([]float64, len(x))
	for it := 0; it < meanShiftMaxIter; it++ {
		tensor.Fill(next, 0)
		var total float64
		for _, p := range points {
			if d2, _ := tensor.SquaredDistance(x, p); d2 <= h*h {
				total++
				for j, v := range p {
					next[j] += v
				}
			}
		}
		if total == 0 {
			// No neighbours within the bandwidth; the point itself is its
			// mode.
			return x
		}
		for j := range next {
			next[j] /= total
		}
		move, _ := tensor.Distance(next, x)
		copy(x, next)
		if move < meanShiftTol {
			break
		}
	}
	return x
}

// mergeModes groups converged modes lying within radius of an earlier
// cluster's centre (its first mode) and returns the centres along with a
// label per input mode. Greedy, first-come ordering keeps the procedure
// deterministic.
func mergeModes(modes [][]float64, radius float64) (centers [][]float64, labels []int) {
	labels = make([]int, len(modes))
	for i, m := range modes {
		assigned := -1
		for c, ctr := range centers {
			if d, _ := tensor.Distance(m, ctr); d <= radius {
				assigned = c
				break
			}
		}
		if assigned == -1 {
			centers = append(centers, m)
			assigned = len(centers) - 1
		}
		labels[i] = assigned
	}
	return centers, labels
}

package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/signguard/signguard/internal/tensor"
)

// KMeans' fixed settings: the k-means++ restart with the lowest inertia
// wins, and each restart's Lloyd iterations stop once the centroids move
// less than kMeansTol in total, or after kMeansMaxIter iterations.
const (
	kMeansRestarts = 3
	kMeansMaxIter  = 100
	kMeansTol      = 1e-6
)

// ErrNonFinitePoints marks clustering input carrying NaN or ±Inf
// coordinates: MeanShift refuses such points up front, and KMeans returns
// it when no restart converges to a finite inertia (a NaN inertia fails
// every "keep the lowest" comparison, so no winner can ever be selected).
var ErrNonFinitePoints = errors.New("cluster: non-finite points")

// KMeans is Lloyd's algorithm with k-means++ initialization: it partitions
// the points into k clusters. The rng drives the k-means++ seeding; pass a
// seeded source for deterministic results.
//
// When k exceeds the number of points, k is clamped to len(points): more
// clusters than points is unsatisfiable, and each point becomes its own
// cluster. Result.Centers and Result.Sizes have the clamped length, so
// len(Centers) == len(Sizes) <= k always holds.
//
// Restarts whose inertia is non-finite (a NaN or ±Inf coordinate poisons
// every squared distance) are skipped; if no restart produces a finite
// inertia, KMeans returns ErrNonFinitePoints instead of a nil Result.
func KMeans(rng *rand.Rand, points [][]float64, k int) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, ErrNoPoints
	}
	if k < 1 {
		return nil, fmt.Errorf("cluster: KMeans requires K >= 1, got %d", k)
	}
	if k > n {
		k = n
	}
	d := len(points[0])
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("cluster: point %d has %d dims, want %d", i, len(p), d)
		}
	}

	var best *Result
	bestInertia := math.Inf(1)
	for r := 0; r < kMeansRestarts; r++ {
		res, inertia := lloyd(rng, points, k)
		// A NaN inertia fails every comparison, so without this guard a
		// hostile point would leave best nil and the caller would receive
		// (nil, nil) — the crash this check exists to prevent.
		if math.IsNaN(inertia) || math.IsInf(inertia, 0) {
			continue
		}
		if inertia < bestInertia {
			best, bestInertia = res, inertia
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: no restart converged to a finite inertia", ErrNonFinitePoints)
	}
	return best, nil
}

// lloyd runs one k-means++-seeded restart and returns its result and
// inertia.
func lloyd(rng *rand.Rand, points [][]float64, k int) (*Result, float64) {
	centers := seedPlusPlus(rng, points, k)
	labels := make([]int, len(points))
	for it := 0; it < kMeansMaxIter; it++ {
		// Assignment step.
		for i, p := range points {
			labels[i] = nearestCenter(p, centers)
		}
		// Update step.
		moved := updateCenters(points, labels, centers)
		if moved < kMeansTol {
			break
		}
	}
	sizes := make([]int, k)
	var inertia float64
	for i, p := range points {
		sizes[labels[i]]++
		d2, _ := tensor.SquaredDistance(p, centers[labels[i]])
		inertia += d2
	}
	return &Result{Labels: labels, Centers: centers, Sizes: sizes}, inertia
}

// seedPlusPlus implements k-means++ seeding: the first center is uniform,
// each subsequent center is drawn proportionally to the squared distance to
// the nearest already-chosen center.
func seedPlusPlus(rng *rand.Rand, points [][]float64, k int) [][]float64 {
	centers := make([][]float64, 0, k)
	centers = append(centers, tensor.Clone(points[rng.Intn(len(points))]))
	d2 := make([]float64, len(points))
	for len(centers) < k {
		var total float64
		for i, p := range points {
			dist2, _ := tensor.SquaredDistance(p, centers[len(centers)-1])
			if len(centers) == 1 || dist2 < d2[i] {
				d2[i] = dist2
			}
			total += d2[i]
		}
		var next int
		if total <= 0 {
			// All remaining points coincide with a center; pick uniformly.
			next = rng.Intn(len(points))
		} else {
			target := rng.Float64() * total
			var acc float64
			for i, w := range d2 {
				acc += w
				if acc >= target {
					next = i
					break
				}
			}
		}
		centers = append(centers, tensor.Clone(points[next]))
	}
	return centers
}

func nearestCenter(p []float64, centers [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for c, ctr := range centers {
		d2, _ := tensor.SquaredDistance(p, ctr)
		if d2 < bestD {
			best, bestD = c, d2
		}
	}
	return best
}

// updateCenters recomputes each centroid as the mean of its members and
// returns the total distance moved. Empty clusters keep their old center.
func updateCenters(points [][]float64, labels []int, centers [][]float64) float64 {
	k := len(centers)
	d := len(centers[0])
	sums := make([][]float64, k)
	counts := make([]int, k)
	for c := range sums {
		sums[c] = make([]float64, d)
	}
	for i, p := range points {
		c := labels[i]
		counts[c]++
		for j, v := range p {
			sums[c][j] += v
		}
	}
	var moved float64
	for c := range centers {
		if counts[c] == 0 {
			continue
		}
		for j := range sums[c] {
			sums[c][j] /= float64(counts[c])
		}
		dist, _ := tensor.Distance(sums[c], centers[c])
		moved += dist
		copy(centers[c], sums[c])
	}
	return moved
}

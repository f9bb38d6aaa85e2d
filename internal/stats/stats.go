// Package stats implements the statistical primitives used by SignGuard and
// the baseline robust aggregation rules: order statistics (median, trimmed
// mean, quantiles), coordinate-wise robust estimators over sets of gradient
// vectors, cosine similarity, the element-wise sign statistics that are the
// heart of the SignGuard filter, and the standard-normal distribution
// functions needed to calibrate the "Little is Enough" attack.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/signguard/signguard/internal/parallel"
	"github.com/signguard/signguard/internal/tensor"
)

// ErrEmptyInput is returned when a statistic is requested over no samples.
var ErrEmptyInput = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Variance returns the population variance of xs (dividing by n, not n-1),
// matching the estimator used by the attacks in the paper.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Median returns the median of xs without modifying the input. For an even
// number of samples it returns the midpoint of the two central values.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2], nil
	}
	return 0.5 * (tmp[n/2-1] + tmp[n/2]), nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	pos := q * float64(len(tmp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return tmp[lo], nil
	}
	frac := pos - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac, nil
}

// TrimmedMean returns the mean of xs after removing the k smallest and the
// k largest values. It requires len(xs) > 2k.
func TrimmedMean(xs []float64, k int) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	if k < 0 {
		return 0, fmt.Errorf("stats: negative trim count %d", k)
	}
	if len(xs) <= 2*k {
		return 0, fmt.Errorf("stats: cannot trim %d from each side of %d samples", k, len(xs))
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	tmp = tmp[k : len(tmp)-k]
	return Mean(tmp)
}

// CosineSimilarity returns cos(a, b) = <a,b>/(||a||·||b||). If either vector
// is zero the similarity is defined as 0.
func CosineSimilarity(a, b []float64) (float64, error) {
	dot, err := tensor.Dot(a, b)
	if err != nil {
		return 0, err
	}
	na, nb := tensor.Norm(a), tensor.Norm(b)
	if na == 0 || nb == 0 {
		return 0, nil
	}
	c := dot / (na * nb)
	// Guard against floating-point drift outside [-1, 1].
	return math.Max(-1, math.Min(1, c)), nil
}

// CoordinateMedian returns the coordinate-wise median of the given vectors.
func CoordinateMedian(vs [][]float64) ([]float64, error) {
	return CoordinateMedianWorkers(vs, 1)
}

// CoordinateMedianWorkers is CoordinateMedian with the coordinates split
// across workers. Every coordinate is processed identically to the
// sequential path, so the result is byte-identical for any worker count.
func CoordinateMedianWorkers(vs [][]float64, workers int) ([]float64, error) {
	if err := validateRows(vs, "CoordinateMedian"); err != nil {
		return nil, err
	}
	d := len(vs[0])
	out := make([]float64, d)
	parallel.For(workers, d, func(_, start, end int) {
		col := make([]float64, len(vs))
		for j := start; j < end; j++ {
			for i, v := range vs {
				col[i] = v[j]
			}
			m, err := Median(col)
			if err != nil { // unreachable: len(col) == len(vs) > 0
				panic(err)
			}
			out[j] = m
		}
	})
	return out, nil
}

// CoordinateTrimmedMean returns the coordinate-wise k-trimmed mean of the
// given vectors (Yin et al., ICML 2018).
func CoordinateTrimmedMean(vs [][]float64, k int) ([]float64, error) {
	return CoordinateTrimmedMeanWorkers(vs, k, 1)
}

// CoordinateTrimmedMeanWorkers is CoordinateTrimmedMean with the
// coordinates split across workers (see CoordinateMedianWorkers).
func CoordinateTrimmedMeanWorkers(vs [][]float64, k int, workers int) ([]float64, error) {
	if err := validateRows(vs, "CoordinateTrimmedMean"); err != nil {
		return nil, err
	}
	if k < 0 || len(vs) <= 2*k {
		return nil, fmt.Errorf("stats: cannot trim %d from each side of %d vectors", k, len(vs))
	}
	d := len(vs[0])
	out := make([]float64, d)
	parallel.For(workers, d, func(_, start, end int) {
		col := make([]float64, len(vs))
		for j := start; j < end; j++ {
			for i, v := range vs {
				col[i] = v[j]
			}
			m, err := TrimmedMean(col, k)
			if err != nil { // unreachable: trim bound checked above
				panic(err)
			}
			out[j] = m
		}
	})
	return out, nil
}

// validateRows checks that vs is a non-empty set of equal-length vectors,
// so the per-coordinate kernels cannot fail mid-parallel-loop.
func validateRows(vs [][]float64, op string) error {
	if len(vs) == 0 {
		return ErrEmptyInput
	}
	d := len(vs[0])
	for i, v := range vs {
		if len(v) != d {
			return fmt.Errorf("stats: %s row %d has %d dims, want %d", op, i, len(v), d)
		}
	}
	return nil
}

// CoordinateMeanStd returns the coordinate-wise mean and population standard
// deviation across the given vectors. These are exactly the µ_j and σ_j
// statistics an omniscient LIE attacker estimates (Eq. 1 of the paper).
func CoordinateMeanStd(vs [][]float64) (mean, std []float64, err error) {
	if len(vs) == 0 {
		return nil, nil, ErrEmptyInput
	}
	d := len(vs[0])
	mean = make([]float64, d)
	std = make([]float64, d)
	for _, v := range vs {
		if len(v) != d {
			return nil, nil, fmt.Errorf("stats: CoordinateMeanStd row has %d dims, want %d", len(v), d)
		}
		for j, x := range v {
			mean[j] += x
		}
	}
	inv := 1.0 / float64(len(vs))
	for j := range mean {
		mean[j] *= inv
	}
	for _, v := range vs {
		for j, x := range v {
			dlt := x - mean[j]
			std[j] += dlt * dlt
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] * inv)
	}
	return mean, std, nil
}

// PairwiseDistances returns the symmetric matrix D where D[i][j] = ||v_i - v_j||.
func PairwiseDistances(vs [][]float64) ([][]float64, error) {
	return PairwiseDistancesWorkers(vs, 1)
}

// supportScratch pools the support-bitmap scratch of
// PairwiseDistancesWorkers, so concurrent Aggregate calls each take their
// own and back-to-back calls share one. The kernel overwrites every word
// before it reads any, so nothing of a previous call leaks into the next.
var supportScratch = sync.Pool{New: func() any { return new([]uint64) }}

// PairwiseDistancesWorkers is PairwiseDistances with the rows of the
// triangular (j > i) loop spread across workers by
// tensor.PairwiseSquaredDistances: row i is measured against columns j > i
// four at a time, over the union of the five vectors' supports. Every
// matrix entry is written by exactly one worker and every distance is
// still one ascending-order sum from +0, so the result is byte-identical
// for any worker count and to a plain loop over tensor.Distance. The rows
// of the result share one flat backing array.
func PairwiseDistancesWorkers(vs [][]float64, workers int) ([][]float64, error) {
	n := len(vs)
	if n == 0 {
		return [][]float64{}, nil
	}
	d := len(vs[0])
	for i, v := range vs {
		if len(v) != d {
			return nil, fmt.Errorf("stats: PairwiseDistances row %d has %d dims, want %d", i, len(v), d)
		}
	}
	flat := make([]float64, n*n)
	out := make([][]float64, n)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}

	words := n * tensor.SupportWords(d)
	scratch := supportScratch.Get().(*[]uint64)
	defer supportScratch.Put(scratch)
	if cap(*scratch) < words {
		*scratch = make([]uint64, words)
	}
	if err := tensor.PairwiseSquaredDistances(out, vs, (*scratch)[:words], workers); err != nil {
		return nil, err
	}
	for i, row := range out {
		for j := i + 1; j < n; j++ {
			row[j] = math.Sqrt(row[j])
			out[j][i] = row[j]
		}
	}
	return out, nil
}

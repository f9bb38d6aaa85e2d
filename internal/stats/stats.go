// Package stats implements the statistical primitives used by SignGuard and
// the baseline robust aggregation rules: order statistics (median, trimmed
// mean), coordinate-wise robust estimators over sets of gradient
// vectors, cosine similarity, the all-pairs distance matrix (Pairwise,
// whose scratch its caller owns and which measures bit-identical rows
// once), the element-wise sign statistics that are the heart of the
// SignGuard filter, and the standard-normal distribution functions needed
// to calibrate the "Little is Enough" attack.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

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

// CoordinateTrimmedMeanWorkers returns the coordinate-wise k-trimmed mean
// of the given vectors (Yin et al., ICML 2018), with the coordinates split
// across workers (see CoordinateMedianWorkers).
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

// Pairwise is the working memory of the all-pairs distance matrix: the
// grouping of bit-identical rows, the support bitmaps, the distinct rows'
// squared distances and the n×n result. A rule keeps one per instance, so
// a warm Aggregate allocates none of it; the zero value is ready to use. It
// keeps no vector across calls and is not safe for concurrent use.
type Pairwise struct {
	group, first []int
	fp, support  []uint64
	reps         [][]float64
	sq, flat     []float64
	sqRows, out  [][]float64
}

// Distances returns the symmetric matrix D[i][j] = ‖vs[i] − vs[j]‖, every
// entry Float64bits-identical to math.Sqrt(tensor.SquaredDistance(vs[i],
// vs[j])) for any worker count (any NaN for a NaN). Rows that are
// bit-identical — colluding attackers' copies — are measured once:
// tensor.DistinctRows groups them, tensor.PairwiseSquaredDistances runs
// over the m distinct rows, and the workers expand its m×m triangle to n×n
// with the square root and the mirror. A copy's distance to its original
// is tensor.SquaredDistance of the row with itself: +0, or NaN for a row
// with a NaN or ±Inf. The rows of the result share one flat backing array,
// valid until the next call.
func (p *Pairwise) Distances(vs [][]float64, workers int) ([][]float64, error) {
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
	p.group, p.first, p.fp = grow(p.group, n), grow(p.first, n), grow(p.fp, n)
	m := tensor.DistinctRows(p.group, p.first, p.fp, vs)
	p.flat, p.out = square(p.flat, p.out, n)
	reps, sq := vs, p.out
	if m < n {
		p.reps = grow(p.reps, m)
		for a, i := range p.first[:m] {
			p.reps[a] = vs[i]
		}
		reps = p.reps
		p.sq, p.sqRows = square(p.sq, p.sqRows, m)
		sq = p.sqRows
		// A copy's distance to its row sits on the diagonal; −1 marks an
		// id with no copy (never read, as out's diagonal is +0).
		for a := range sq {
			sq[a][a] = -1
		}
		for i, g := range p.group[:n] {
			if p.first[g] != i && sq[g][g] < 0 {
				sq[g][g], _ = tensor.SquaredDistance(vs[i], vs[i])
			}
		}
	}
	p.support = grow(p.support, m*tensor.SupportWords(d))
	err := tensor.PairwiseSquaredDistances(sq, reps, p.support, workers)
	clear(p.reps)
	if err != nil {
		return nil, err
	}
	parallel.For(workers, m, func(_, start, end int) {
		for a := start; a < end; a++ {
			row := sq[a]
			for b := a; b < m; b++ {
				row[b] = math.Sqrt(row[b])
			}
		}
	})
	// Expansion: every entry of row i is a square-rooted entry of the
	// distinct rows' upper triangle (or diagonal, for two copies). With no
	// copies the triangle is the result's own, so only the mirror is written.
	group := p.group[:n]
	parallel.For(workers, n, func(_, start, end int) {
		for i := start; i < end; i++ {
			row, gi := p.out[i], group[i]
			for j, gj := range group {
				switch {
				case j == i:
					row[j] = 0
				case m == n && j > i:
				case gi <= gj:
					row[j] = sq[gi][gj]
				default:
					row[j] = sq[gj][gi]
				}
			}
		}
	})
	return p.out, nil
}

// grow returns s resliced to n elements, reallocated only when too short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// square returns an n×n matrix over flat whose rows share one backing
// array, reusing flat and rows when they are large enough.
func square(flat []float64, rows [][]float64, n int) ([]float64, [][]float64) {
	flat, rows = grow(flat, n*n), grow(rows, n)
	for i := range rows {
		rows[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return flat, rows
}

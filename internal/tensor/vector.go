// Package tensor provides the dense float64 vector and matrix primitives
// used throughout the SignGuard reproduction: gradient vectors exchanged
// between federated-learning clients and the parameter server, feature rows
// consumed by the clustering filters, and the weight matrices of the
// neural-network substrate.
//
// All operations are allocation-conscious: the hot aggregation paths reuse
// destination slices wherever possible, and in-place variants are provided
// for the inner loops of training.
package tensor

import (
	"errors"
	"fmt"
	"math"

	"github.com/signguard/signguard/internal/parallel"
)

// ErrDimensionMismatch is returned when two vectors or matrices that must
// share a shape do not.
var ErrDimensionMismatch = errors.New("tensor: dimension mismatch")

// Clone returns a copy of v. A nil input yields a nil output.
func Clone(v []float64) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// CloneAll deep-copies a slice of vectors.
func CloneAll(vs [][]float64) [][]float64 {
	if vs == nil {
		return nil
	}
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = Clone(v)
	}
	return out
}

// Fill sets every element of v to c.
func Fill(v []float64, c float64) {
	for i := range v {
		v[i] = c
	}
}

// AddInPlace sets dst = dst + src.
func AddInPlace(dst, src []float64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("%w: AddInPlace(%d, %d)", ErrDimensionMismatch, len(dst), len(src))
	}
	for i := range dst {
		dst[i] += src[i]
	}
	return nil
}

// Scale returns c*v as a new vector.
func Scale(v []float64, c float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// ScaleInPlace sets v = c*v.
func ScaleInPlace(v []float64, c float64) {
	for i := range v {
		v[i] *= c
	}
}

// Axpy sets dst = dst + alpha*x (the BLAS "axpy" primitive).
func Axpy(dst []float64, alpha float64, x []float64) error {
	if len(dst) != len(x) {
		return fmt.Errorf("%w: Axpy(%d, %d)", ErrDimensionMismatch, len(dst), len(x))
	}
	for i := range dst {
		dst[i] += alpha * x[i]
	}
	return nil
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: Dot(%d, %d)", ErrDimensionMismatch, len(a), len(b))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s, nil
}

// Norm returns the Euclidean (l2) norm of v.
func Norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// SquaredDistance returns ||a-b||^2.
func SquaredDistance(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: SquaredDistance(%d, %d)", ErrDimensionMismatch, len(a), len(b))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s, nil
}

// Distance returns the Euclidean distance ||a-b||.
func Distance(a, b []float64) (float64, error) {
	s, err := SquaredDistance(a, b)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(s), nil
}

// Mean computes the element-wise mean of the given vectors. All vectors must
// share a length and at least one vector must be supplied.
func Mean(vs [][]float64) ([]float64, error) {
	return MeanWorkers(vs, 1)
}

// MeanWorkers is Mean with its coordinate loop split across workers.
// Each coordinate is owned by exactly one worker and accumulates over the
// vectors in input order — the same association as the sequential path —
// so the result is byte-identical for any worker count.
func MeanWorkers(vs [][]float64, workers int) ([]float64, error) {
	if len(vs) == 0 {
		return nil, errors.New("tensor: Mean of empty set")
	}
	d := len(vs[0])
	for _, v := range vs {
		if len(v) != d {
			return nil, fmt.Errorf("%w: Mean row has length %d, want %d", ErrDimensionMismatch, len(v), d)
		}
	}
	out := make([]float64, d)
	inv := 1.0 / float64(len(vs))
	parallel.For(workers, d, func(_, start, end int) {
		for _, v := range vs {
			for j := start; j < end; j++ {
				out[j] += v[j]
			}
		}
		for j := start; j < end; j++ {
			out[j] *= inv
		}
	})
	return out, nil
}

// WeightedMeanWorkers computes sum_i w[i]*vs[i] / sum_i w[i] with its
// coordinate loop split across workers, preserving the sequential
// per-coordinate accumulation order (see MeanWorkers).
func WeightedMeanWorkers(vs [][]float64, w []float64, workers int) ([]float64, error) {
	if len(vs) == 0 {
		return nil, errors.New("tensor: WeightedMean of empty set")
	}
	if len(vs) != len(w) {
		return nil, fmt.Errorf("%w: WeightedMean %d vectors, %d weights", ErrDimensionMismatch, len(vs), len(w))
	}
	d := len(vs[0])
	var total float64
	for i, v := range vs {
		if len(v) != d {
			return nil, fmt.Errorf("%w: WeightedMean row has length %d, want %d", ErrDimensionMismatch, len(v), d)
		}
		total += w[i]
	}
	if total == 0 {
		return nil, errors.New("tensor: WeightedMean with zero total weight")
	}
	out := make([]float64, d)
	inv := 1.0 / total
	parallel.For(workers, d, func(_, start, end int) {
		for i, v := range vs {
			wi := w[i]
			for j := start; j < end; j++ {
				out[j] += wi * v[j]
			}
		}
		for j := start; j < end; j++ {
			out[j] *= inv
		}
	})
	return out, nil
}

// ClipNorm scales v in place so that its l2 norm does not exceed bound.
// It returns the scaling factor applied (1 when no clipping occurred).
// Non-positive bounds leave v untouched.
func ClipNorm(v []float64, bound float64) float64 {
	if bound <= 0 {
		return 1
	}
	n := Norm(v)
	if n <= bound || n == 0 {
		return 1
	}
	c := bound / n
	ScaleInPlace(v, c)
	return c
}

// AllFinite reports whether every element of v is finite (no NaN or Inf).
func AllFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Equal reports whether a and b have the same length and all elements are
// within tol of each other.
func Equal(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

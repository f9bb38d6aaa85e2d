package tensor

import (
	"fmt"
	"math"

	"github.com/signguard/signguard/internal/parallel"
)

// Matrix is a dense row-major matrix of float64. The zero value is an empty
// matrix; use NewMatrix to allocate a sized one.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a Rows x Cols zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMatrix(%d, %d) with negative dimension", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// MulVecWorkers computes y = M x for a length-Cols vector x, returning a
// new length-Rows vector, with the output rows split across workers. Every
// y[i] is one sequential dot product, so the result is byte-identical for
// any worker count.
func (m *Matrix) MulVecWorkers(x []float64, workers int) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("%w: MulVec(%dx%d, %d)", ErrDimensionMismatch, m.Rows, m.Cols, len(x))
	}
	y := make([]float64, m.Rows)
	parallel.For(workers, m.Rows, func(_, start, end int) {
		for i := start; i < end; i++ {
			row := m.Row(i)
			var s float64
			for j, xv := range x {
				s += row[j] * xv
			}
			y[i] = s
		}
	})
	return y, nil
}

// MulVecTWorkers computes y = Mᵀ x for a length-Rows vector x, returning a
// new length-Cols vector, with the output columns split across workers.
// Every y[j] accumulates over the rows in ascending order — the same
// association as the sequential row-major pass — so the result is
// byte-identical for any worker count.
func (m *Matrix) MulVecTWorkers(x []float64, workers int) ([]float64, error) {
	if len(x) != m.Rows {
		return nil, fmt.Errorf("%w: MulVecT(%dx%d, %d)", ErrDimensionMismatch, m.Rows, m.Cols, len(x))
	}
	y := make([]float64, m.Cols)
	parallel.For(workers, m.Cols, func(_, start, end int) {
		for i := 0; i < m.Rows; i++ {
			xv := x[i]
			if xv == 0 {
				continue
			}
			row := m.Row(i)
			for j := start; j < end; j++ {
				y[j] += row[j] * xv
			}
		}
	})
	return y, nil
}

// CenterRowsWorkers subtracts the column means from each row in place and
// returns the mean row that was removed, with the columns split across
// workers. Each column's mean accumulates over the rows in ascending order,
// matching the sequential association, so the result is byte-identical for
// any worker count.
func (m *Matrix) CenterRowsWorkers(workers int) []float64 {
	mean := make([]float64, m.Cols)
	if m.Rows == 0 {
		return mean
	}
	inv := 1.0 / float64(m.Rows)
	parallel.For(workers, m.Cols, func(_, start, end int) {
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			for j := start; j < end; j++ {
				mean[j] += row[j]
			}
		}
		for j := start; j < end; j++ {
			mean[j] *= inv
		}
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			for j := start; j < end; j++ {
				row[j] -= mean[j]
			}
		}
	})
	return mean
}

// TopSingularVectorWorkers estimates the dominant right singular vector of
// the matrix via power iteration on MᵀM, without materializing the Gram
// matrix. iters bounds the number of iterations; tol is the convergence
// threshold on the change of the estimate between iterations. The returned
// vector has unit norm. The rng-free deterministic start vector makes
// results reproducible. The matrix-vector products of each step run across
// workers (see MulVecWorkers / MulVecTWorkers); the result is
// byte-identical for any worker count.
func (m *Matrix) TopSingularVectorWorkers(iters int, tol float64, workers int) []float64 {
	v := make([]float64, m.Cols)
	if m.Cols == 0 {
		return v
	}
	// Deterministic non-degenerate start: alternating signs with a ramp so
	// it is unlikely to be orthogonal to the dominant direction.
	for j := range v {
		v[j] = 1 + 0.5*float64(j%7)/7
		if j%2 == 1 {
			v[j] = -v[j]
		}
	}
	normalize(v)
	prev := make([]float64, m.Cols)
	for it := 0; it < iters; it++ {
		copy(prev, v)
		// v <- normalize(Mᵀ (M v))
		mv, err := m.MulVecWorkers(v, workers)
		if err != nil { // cannot happen: shapes are internally consistent
			panic(err)
		}
		mtv, err := m.MulVecTWorkers(mv, workers)
		if err != nil {
			panic(err)
		}
		copy(v, mtv)
		if n := Norm(v); n == 0 {
			// Matrix is (numerically) zero; any unit vector is valid.
			Fill(v, 0)
			v[0] = 1
			return v
		}
		normalize(v)
		// Power iteration can flip signs between iterations; compare the
		// subspace, not the vector.
		d1, _ := Distance(v, prev)
		neg := Scale(prev, -1)
		d2, _ := Distance(v, neg)
		if math.Min(d1, d2) < tol {
			break
		}
	}
	return v
}

func normalize(v []float64) {
	n := Norm(v)
	if n == 0 {
		return
	}
	ScaleInPlace(v, 1/n)
}

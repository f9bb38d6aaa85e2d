package tensor

import "fmt"

// This file holds the dense matmul kernels of the batched local-compute
// path (internal/nn's BatchedLossAndGrad): blocked and strided variants of
// the three products a dense layer needs — x·Wᵀ for the forward pass,
// g·W for the input gradient and gᵀ·x for the weight gradient. Each runs
// on the caller's goroutine: the engine parallelizes over model replicas,
// not inside one product.
//
// Every kernel keeps each output element's floating-point accumulation in
// the same ascending-index order as the naive sequential loop, so the
// kernels are byte-identical drop-in replacements.

// kernelBlockJ is the shared-dimension block size of MulABTInto:
// blocks of b's rows this wide stay resident in cache while every row of a
// streams past. Blocking only reorders memory traffic, never the per-output
// accumulation order, so it cannot change results.
const kernelBlockJ = 256

// MulABTInto accumulates a·bᵀ into dst: dst[i][o] += Σ_j a[i][j]·b[o][j],
// with a (N,K), b (M,K), dst (N,M). Each dst element accumulates over j in
// ascending order — the association of a sequential dot product — so the
// result is byte-identical to the naive loop.
func MulABTInto(dst, a, b *Matrix) error {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		return fmt.Errorf("%w: MulABTInto(%dx%d, %dx%d, %dx%d)",
			ErrDimensionMismatch, dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	mulABTRange(dst, a, b, 0, a.Rows)
	return nil
}

// mulABTRange computes dst rows [r0,r1), blocked over the shared j
// dimension: one block of b is reused across every a row before the next
// block streams in. j blocks advance in ascending order, so each dst
// element still accumulates j-ascending.
func mulABTRange(dst, a, b *Matrix, r0, r1 int) {
	for j0 := 0; j0 < a.Cols; j0 += kernelBlockJ {
		j1 := j0 + kernelBlockJ
		if j1 > a.Cols {
			j1 = a.Cols
		}
		for i := r0; i < r1; i++ {
			ai := a.Row(i)[j0:j1]
			di := dst.Row(i)
			for o := 0; o < b.Rows; o++ {
				bo := b.Row(o)[j0:j1]
				s := di[o]
				for j, av := range ai {
					s += av * bo[j]
				}
				di[o] = s
			}
		}
	}
}

// MatMulInto accumulates a·b into dst: dst[i][j] += Σ_k a[i][k]·b[k][j],
// with a (N,K), b (K,M), dst (N,M). It runs the ikj loop with a
// zero-skip, so each dst element accumulates over k in ascending order —
// byte-identical to the sequential loop (the zero-skip is part of the
// contract: skipping a zero term preserves a negative-zero accumulator
// that adding +0.0 would flip).
func MatMulInto(dst, a, b *Matrix) error {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		return fmt.Errorf("%w: MatMulInto(%dx%d, %dx%d, %dx%d)",
			ErrDimensionMismatch, dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return nil
}

// MulATBRangeInto accumulates aᵀ·b restricted to rows [i0,i1) into dst:
// dst[o][j] += Σ_{i∈[i0,i1)} a[i][o]·b[i][j], with a (N,M), b (N,K),
// dst (M,K). Rows are visited in ascending order with the zero-skip of the
// layer backward loops, so accumulating a segment's rows is byte-identical
// to running the sequential backward pass over that segment alone — the
// property the batched engine's per-client gradient de-interleaving rests
// on.
func MulATBRangeInto(dst, a, b *Matrix, i0, i1 int) error {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		return fmt.Errorf("%w: MulATBRangeInto(%dx%d, %dx%d, %dx%d)",
			ErrDimensionMismatch, dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if i0 < 0 || i1 > a.Rows || i0 > i1 {
		return fmt.Errorf("%w: MulATBRangeInto rows [%d,%d) of %d", ErrDimensionMismatch, i0, i1, a.Rows)
	}
	for i := i0; i < i1; i++ {
		arow := a.Row(i)
		brow := b.Row(i)
		for o, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Row(o)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return nil
}

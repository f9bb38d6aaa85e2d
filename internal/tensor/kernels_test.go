package tensor

import (
	"math"
	"testing"
)

func randomMatrix(rows, cols int, seed int64) *Matrix {
	rng := NewRNG(seed)
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// naiveABT is the reference for dst += a·bᵀ: one sequential dot per
// element, j ascending — the association the exact kernel must reproduce
// bit for bit.
func naiveABT(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for o := 0; o < b.Rows; o++ {
			s := dst.Data[i*dst.Cols+o]
			for j := 0; j < a.Cols; j++ {
				s += a.Data[i*a.Cols+j] * b.Data[o*b.Cols+j]
			}
			dst.Data[i*dst.Cols+o] = s
		}
	}
}

// matMul is the reference for a·b: a fresh product in ikj order, skipping
// zero terms of a.
func matMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func assertBitIdentical(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestMulABTIntoBitIdentical: the blocked kernel must match the naive
// sequential dots bitwise, including shared dimensions larger than the
// block size, and for any worker count.
func TestMulABTIntoBitIdentical(t *testing.T) {
	for _, k := range []int{7, kernelBlockJ + 37} {
		a := randomMatrix(9, k, 1)
		b := randomMatrix(5, k, 2)
		want := randomMatrix(9, 5, 3)
		got1 := randomMatrix(9, 5, 3)
		naiveABT(want, a, b)
		if err := MulABTInto(got1, a, b); err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, got1, want, "MulABTInto")
		for _, workers := range []int{2, 7} {
			got := randomMatrix(9, 5, 3)
			if err := MulABTWorkersInto(got, a, b, workers); err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, got, want, "MulABTWorkersInto")
		}
	}
}

// TestMatMulIntoMatchesMatMul: the accumulate-into form must reproduce
// the reference product bitwise when starting from zero.
func TestMatMulIntoMatchesMatMul(t *testing.T) {
	a := randomMatrix(5, 8, 6)
	a.Data[2*a.Cols+3] = 0 // exercise the zero-skip
	b := randomMatrix(8, 4, 7)
	want := matMul(a, b)
	got := NewMatrix(5, 4)
	if err := MatMulInto(got, a, b); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, want, "MatMulInto")
}

// TestMulATBRangeIntoSegments: accumulating each row segment into its own
// destination must agree bitwise with the full-range product summed
// segment-wise — the de-interleaving property of the batched backward.
func TestMulATBRangeIntoSegments(t *testing.T) {
	a := randomMatrix(10, 3, 8)
	a.Data[4*a.Cols+1] = 0 // exercise the zero-skip
	b := randomMatrix(10, 6, 9)
	full := NewMatrix(3, 6)
	if err := MulATBRangeInto(full, a, b, 0, a.Rows); err != nil {
		t.Fatal(err)
	}
	bounds := []int{0, 4, 5, 10}
	sum := NewMatrix(3, 6)
	for s := 0; s+1 < len(bounds); s++ {
		seg := NewMatrix(3, 6)
		if err := MulATBRangeInto(seg, a, b, bounds[s], bounds[s+1]); err != nil {
			t.Fatal(err)
		}
		// The segment must equal a row-restricted naive pass.
		want := NewMatrix(3, 6)
		for i := bounds[s]; i < bounds[s+1]; i++ {
			for o := 0; o < a.Cols; o++ {
				av := a.Data[i*a.Cols+o]
				if av == 0 {
					continue
				}
				for j := 0; j < b.Cols; j++ {
					want.Data[o*want.Cols+j] += av * b.Data[i*b.Cols+j]
				}
			}
		}
		assertBitIdentical(t, seg, want, "MulATBRangeInto segment")
		for i := range sum.Data {
			sum.Data[i] += seg.Data[i]
		}
	}
	// Segments partition the rows, so the segment sums reproduce the full
	// product to float accuracy (association differs across segment
	// boundaries, hence approximate).
	for i := range full.Data {
		if d := math.Abs(sum.Data[i] - full.Data[i]); d > 1e-9*(1+math.Abs(full.Data[i])) {
			t.Fatalf("segment sum drift %g at %d", d, i)
		}
	}
}

// TestKernelDimensionChecks: every kernel rejects mismatched shapes.
func TestKernelDimensionChecks(t *testing.T) {
	a := NewMatrix(3, 4)
	b := NewMatrix(2, 5)
	dst := NewMatrix(3, 2)
	if err := MulABTInto(dst, a, b); err == nil {
		t.Error("MulABTInto accepted mismatched shared dim")
	}
	if err := MatMulInto(dst, a, b); err == nil {
		t.Error("MatMulInto accepted mismatched inner dim")
	}
	if err := MulATBRangeInto(dst, a, b, 0, 3); err == nil {
		t.Error("MulATBRangeInto accepted mismatched rows")
	}
	c := NewMatrix(3, 5)
	d := NewMatrix(5, 5)
	if err := MulATBRangeInto(d, c, c, 2, 1); err == nil {
		t.Error("MulATBRangeInto accepted descending range")
	}
}

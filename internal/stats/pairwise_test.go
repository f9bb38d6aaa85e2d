package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/tensor"
)

// referencePairwise is the distance matrix as it was computed before the
// blocked kernel — one tensor.SquaredDistance pass per pair — kept here as
// the oracle PairwiseDistancesWorkers must match bit for bit.
func referencePairwise(t testing.TB, vs [][]float64) [][]float64 {
	t.Helper()
	out := make([][]float64, len(vs))
	for i := range out {
		out[i] = make([]float64, len(vs))
	}
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			d2, err := tensor.SquaredDistance(vs[i], vs[j])
			if err != nil {
				t.Fatal(err)
			}
			out[i][j] = math.Sqrt(d2)
			out[j][i] = out[i][j]
		}
	}
	return out
}

// sameBits is Float64bits equality, except that any NaN matches any NaN:
// which payload survives NaN + NaN is the hardware's operand-order rule,
// not something Go (or the oracle) pins.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// checkPairwise asserts got is n×n, symmetric, zero on the diagonal and
// bit-identical to the oracle.
func checkPairwise(t testing.TB, label string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want) {
			t.Fatalf("%s: row %d has %d entries, want %d", label, i, len(got[i]), len(want))
		}
		if math.Float64bits(got[i][i]) != 0 {
			t.Fatalf("%s: diagonal [%d] = %v, want +0", label, i, got[i][i])
		}
		for j := range want {
			if !sameBits(got[i][j], want[i][j]) {
				t.Fatalf("%s: [%d][%d] = %x, oracle %x", label, i, j, math.Float64bits(got[i][j]), math.Float64bits(want[i][j]))
			}
			if !sameBits(got[i][j], got[j][i]) {
				t.Fatalf("%s: [%d][%d] = %v but [%d][%d] = %v", label, i, j, got[i][j], j, i, got[j][i])
			}
		}
	}
}

// maskedRows draws n rows of d normal coordinates and zeroes all but
// density·d of each (at least one kept when density > 0), like a top-k
// decode.
func maskedRows(rng *rand.Rand, n, d int, density float64) [][]float64 {
	keep := int(math.Ceil(density * float64(d)))
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = make([]float64, d)
		for _, c := range rng.Perm(d)[:keep] {
			vs[i][c] = rng.NormFloat64()
		}
	}
	return vs
}

func TestPairwiseDistancesMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 2, 5, 6, 9, 200} {
		for _, d := range []int{1, 63, 64, 65, 4550} {
			for _, density := range []float64{0, 0.01, 0.1, 0.5, 1} {
				if testing.Short() && n*d > 100000 && density != 0.1 && density != 1 {
					continue // the two densities the workloads have; the rest run without -short
				}
				label := fmt.Sprintf("n=%d d=%d density=%g", n, d, density)
				vs := maskedRows(rng, n, d, density)
				if n >= 2 {
					// The values a skipped coordinate must not mishandle: −0
					// (not in the support, squares to +0), a subnormal (in
					// it), and a duplicated row (LIE's colluders: exactly 0).
					vs[0][rng.Intn(d)] = math.Copysign(0, -1)
					vs[1][rng.Intn(d)] = 5e-324
					copy(vs[n-1], vs[0])
				}
				want := referencePairwise(t, vs)
				for _, workers := range []int{1, 2, 7} {
					got, err := PairwiseDistancesWorkers(vs, workers)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", label, workers, err)
					}
					checkPairwise(t, fmt.Sprintf("%s workers=%d", label, workers), got, want)
					if n >= 2 && got[0][n-1] != 0 {
						t.Fatalf("%s: duplicated rows are %v apart, want exactly 0", label, got[0][n-1])
					}
				}
			}
		}
	}
}

// Non-finite coordinates are always in the support, so a hostile row
// poisons exactly the entries it poisons in the oracle — including the
// +Inf − +Inf = NaN of two rows that agree on an infinity.
func TestPairwiseDistancesNonFiniteRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{1, 64, 65, 4550} {
		for _, density := range []float64{0.1, 1} {
			vs := maskedRows(rng, 9, d, density)
			vs[1][rng.Intn(d)] = math.NaN()
			vs[3][rng.Intn(d)] = math.Inf(1)
			vs[4][rng.Intn(d)] = math.Inf(-1)
			c := rng.Intn(d)
			vs[6][c], vs[7][c] = math.Inf(1), math.Inf(1)
			want := referencePairwise(t, vs)
			if !math.IsNaN(want[6][7]) || !math.IsInf(want[3][0], 1) {
				t.Fatalf("d=%d: oracle did not see the non-finite rows: %v %v", d, want[6][7], want[3][0])
			}
			for _, workers := range []int{1, 2, 7} {
				got, err := PairwiseDistancesWorkers(vs, workers)
				if err != nil {
					t.Fatal(err)
				}
				checkPairwise(t, fmt.Sprintf("d=%d density=%g workers=%d", d, density, workers), got, want)
			}
		}
	}
}

// A ragged cohort is refused with the row named, before any distance is
// computed (no panic from the kernel, no partial matrix).
func TestPairwiseDistancesRaggedRows(t *testing.T) {
	vs := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8}, {9, 10, 11}}
	for _, workers := range []int{1, 2} {
		out, err := PairwiseDistancesWorkers(vs, workers)
		if err == nil || out != nil {
			t.Fatalf("workers=%d: ragged rows gave %v, %v", workers, out, err)
		}
		if !strings.Contains(err.Error(), "row 2 has 2 dims") {
			t.Errorf("workers=%d: error %q does not name the row", workers, err)
		}
	}
}

// Concurrent callers each take their own pooled bitmap scratch: differently
// shaped cohorts interleaved on many goroutines must each still match their
// oracle (run under -race by make race and make conformance's callers).
func TestPairwiseDistancesConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cohorts := [][][]float64{
		maskedRows(rng, 9, 300, 0.1),
		maskedRows(rng, 6, 65, 1),
		maskedRows(rng, 12, 130, 0.5),
	}
	wants := make([][][]float64, len(cohorts))
	for i, vs := range cohorts {
		wants[i] = referencePairwise(t, vs)
	}
	done := make(chan error, 8)
	for g := 0; g < cap(done); g++ {
		go func(g int) {
			for rep := 0; rep < 20; rep++ {
				k := (g + rep) % len(cohorts)
				got, err := PairwiseDistancesWorkers(cohorts[k], 1+g%3)
				if err != nil {
					done <- err
					return
				}
				for i := range got {
					for j := range got[i] {
						if !sameBits(got[i][j], wants[k][i][j]) {
							done <- fmt.Errorf("goroutine %d cohort %d: [%d][%d] = %v, oracle %v", g, k, i, j, got[i][j], wants[k][i][j])
							return
						}
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < cap(done); g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// FuzzPairwiseDistances reinterprets raw bytes as a small n×d matrix — any
// bit pattern, so NaN, ±Inf, −0 and subnormals arise naturally — with a
// zero-mask punched into it, and holds the kernel to the oracle's bits for
// three worker counts.
func FuzzPairwiseDistances(f *testing.F) {
	seed := make([]byte, 8*12)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(uint8(3), uint64(0x5a5a), seed)
	f.Add(uint8(70), uint64(0), make([]byte, 8*140))
	f.Add(uint8(1), ^uint64(0), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Fuzz(func(t *testing.T, dim uint8, mask uint64, data []byte) {
		d := int(dim)%130 + 1
		n := len(data) / 8 / d
		if n > 12 {
			n = 12
		}
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = make([]float64, d)
			for c := range vs[i] {
				// Bit (i+c)%64 of mask zeroes the coordinate, so supports
				// differ from row to row.
				if mask>>(uint(i+c)%64)&1 == 0 {
					vs[i][c] = math.Float64frombits(binary.LittleEndian.Uint64(data[(i*d+c)*8:]))
				}
			}
		}
		want := referencePairwise(t, vs)
		for _, workers := range []int{1, 2, 7} {
			got, err := PairwiseDistancesWorkers(vs, workers)
			if err != nil {
				t.Fatal(err)
			}
			checkPairwise(t, fmt.Sprintf("workers=%d", workers), got, want)
		}
	})
}

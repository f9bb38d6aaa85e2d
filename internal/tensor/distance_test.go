package tensor

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The one-to-many form against the per-pair oracle, bit for bit: every
// block width (a last block of one, two, three), dimensions around the
// 64-coordinate word and around the 4096-coordinate run the kernel's sums
// are carried across, and the values a dense pass must not special-case.
func TestSquaredDistancesToMatchesSquaredDistanceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{0, 1, 63, 64, 65, 64 * unionWords, 64*unionWords + 1, 8300} {
		for n := 0; n <= 9; n++ {
			a := RandNormal(rng, d, 0, 1)
			bs := make([][]float64, n)
			for k := range bs {
				bs[k] = RandNormal(rng, d, 0, 1)
			}
			if d > 0 && n > 2 {
				a[rng.Intn(d)] = math.Copysign(0, -1)
				bs[0][rng.Intn(d)] = 5e-324
				bs[1][rng.Intn(d)] = math.Inf(1)
				copy(bs[2], a)
			}
			dst := make([]float64, n)
			for k := range dst {
				dst[k] = math.NaN() // must be overwritten, not accumulated into
			}
			if err := SquaredDistancesTo(dst, a, bs); err != nil {
				t.Fatalf("d=%d n=%d: %v", d, n, err)
			}
			for k, b := range bs {
				want, err := SquaredDistance(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(dst[k]) != math.Float64bits(want) {
					t.Fatalf("d=%d n=%d: dst[%d] = %x, SquaredDistance %x", d, n, k, math.Float64bits(dst[k]), math.Float64bits(want))
				}
			}
		}
	}
}

func TestSquaredDistancesToRejectsMismatch(t *testing.T) {
	a := []float64{1, 2, 3}
	if err := SquaredDistancesTo(make([]float64, 1), a, [][]float64{{1, 2, 3}, {4, 5, 6}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("short dst: %v", err)
	}
	if err := SquaredDistancesTo(make([]float64, 2), a, [][]float64{{1, 2, 3}, {4, 5}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("ragged bs: %v", err)
	}
}

// fillSupport marks exactly x != 0: NaN and ±Inf in, ±0 out, nothing past
// the vector's end, and stale scratch overwritten.
func TestFillSupport(t *testing.T) {
	v := make([]float64, 70)
	v[0], v[5], v[63], v[64], v[69] = math.NaN(), math.Inf(-1), 5e-324, -1, math.Inf(1)
	v[1], v[65] = math.Copysign(0, -1), 0
	got := []uint64{^uint64(0), ^uint64(0)}
	fillSupport(got, v)
	want := []uint64{1 | 1<<5 | 1<<63, 1 | 1<<5}
	if got[0] != want[0] || got[1] != want[1] {
		t.Errorf("fillSupport = %b, want %b", got, want)
	}
}

func TestPairwiseSquaredDistancesContract(t *testing.T) {
	vs := [][]float64{{0, 0, 3}, {4, 0, 0}, {0, 0, 3}}
	newOut := func() [][]float64 {
		out := make([][]float64, 3)
		for i := range out {
			out[i] = []float64{-1, -1, -1}
		}
		return out
	}
	out := newOut()
	if err := PairwiseSquaredDistances(out, vs, make([]uint64, 3), 2); err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{-1, 25, 0}, {-1, -1, 25}, {-1, -1, -1}} // only j > i is written
	for i := range want {
		for j := range want[i] {
			if out[i][j] != want[i][j] {
				t.Errorf("out[%d][%d] = %v, want %v", i, j, out[i][j], want[i][j])
			}
		}
	}
	if err := PairwiseSquaredDistances(newOut(), vs, make([]uint64, 2), 1); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("short support scratch: %v", err)
	}
	if err := PairwiseSquaredDistances(newOut()[:2], vs, make([]uint64, 3), 1); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("short out: %v", err)
	}
	if err := PairwiseSquaredDistances(newOut(), [][]float64{{1}, {1, 2}, {1}}, make([]uint64, 3), 1); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("ragged rows: %v", err)
	}
	if err := PairwiseSquaredDistances(nil, nil, nil, 1); err != nil {
		t.Errorf("empty cohort: %v", err)
	}
}

// DistinctRows numbers ids in order of first appearance and merges only
// rows with the same bits everywhere: NaN rows with the same payload merge,
// rows that differ in the sign of a zero, in length, or only past the
// coordinates the fingerprint reads do not. A row is compared in full with
// the first id of its fingerprint only, so a copy of tail (whose
// fingerprint long's id holds) opens an id of its own: not collapsed, still
// exact.
func TestDistinctRows(t *testing.T) {
	nan := math.NaN()
	long := make([]float64, 3*fingerprintCoords)
	for c := range long {
		long[c] = 1
	}
	tail := slices.Clone(long)
	tail[len(tail)-1] = 2
	vs := [][]float64{
		{1, 0, 2},
		{nan, 0, 0},
		{1, 0, 2},
		{1, math.Copysign(0, -1), 2},
		{nan, 0, 0},
		{1, 0},
		{1, 0, 2},
		long,
		tail,
		slices.Clone(tail),
		slices.Clone(long),
	}
	if fingerprint(long) != fingerprint(tail) {
		t.Fatal("the fingerprint reads past its first coordinates; widen the rows that differ only in their tail")
	}
	group, first, fp := make([]int, len(vs)), make([]int, len(vs)), make([]uint64, len(vs))
	m := DistinctRows(group, first, fp, vs)
	wantGroup, wantFirst := []int{0, 1, 0, 2, 1, 3, 0, 4, 5, 6, 4}, []int{0, 1, 3, 5, 7, 8, 9}
	if m != len(wantFirst) || !slices.Equal(group, wantGroup) || !slices.Equal(first[:m], wantFirst) {
		t.Errorf("m = %d, group = %v, first = %v; want %d, %v, %v", m, group, first[:m], len(wantFirst), wantGroup, wantFirst)
	}
}

// The fingerprint sees a value move to another of the coordinates it reads,
// including one a multiple of 64 coordinates away, where a rotation by the
// index would repeat.
func TestFingerprintSeesMovedValues(t *testing.T) {
	v := make([]float64, 64*fingerprintCoords)
	for c := 0; c < len(v); c += 64 {
		v[c] = float64(c/64%7) - 3.5
	}
	for _, move := range [][2]int{{0, 64}, {64, 192}, {128, 64 * (fingerprintCoords - 1)}, {0, 1}} {
		w := slices.Clone(v)
		w[move[0]], w[move[1]] = v[move[1]], v[move[0]]
		if fingerprint(w) == fingerprint(v) {
			t.Errorf("moving values between coordinates %d and %d keeps the fingerprint", move[0], move[1])
		}
	}
}

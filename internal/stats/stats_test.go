package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/signguard/signguard/internal/tensor"
)

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil || m != 5 {
		t.Errorf("Mean = %v, %v", m, err)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("Mean accepted empty input")
	}
}

func TestMedian(t *testing.T) {
	odd := []float64{5, 1, 3}
	m, err := Median(odd)
	if err != nil || m != 3 {
		t.Errorf("Median(odd) = %v, %v", m, err)
	}
	even := []float64{4, 1, 3, 2}
	m, err = Median(even)
	if err != nil || m != 2.5 {
		t.Errorf("Median(even) = %v, %v", m, err)
	}
	// Input must not be mutated.
	if odd[0] != 5 {
		t.Error("Median mutated its input")
	}
	if _, err := Median(nil); err == nil {
		t.Error("Median accepted empty input")
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{100, 1, 2, 3, -50}
	got, err := TrimmedMean(xs, 1)
	if err != nil || got != 2 {
		t.Errorf("TrimmedMean = %v, %v", got, err)
	}
	if _, err := TrimmedMean(xs, 3); err == nil {
		t.Error("TrimmedMean accepted k too large")
	}
	if _, err := TrimmedMean(xs, -1); err == nil {
		t.Error("TrimmedMean accepted negative k")
	}
}

func TestCosineSimilarity(t *testing.T) {
	c, err := CosineSimilarity([]float64{1, 0}, []float64{2, 0})
	if err != nil || math.Abs(c-1) > 1e-12 {
		t.Errorf("parallel = %v, %v", c, err)
	}
	c, _ = CosineSimilarity([]float64{1, 0}, []float64{0, 3})
	if math.Abs(c) > 1e-12 {
		t.Errorf("orthogonal = %v", c)
	}
	c, _ = CosineSimilarity([]float64{1, 1}, []float64{-1, -1})
	if math.Abs(c+1) > 1e-12 {
		t.Errorf("antiparallel = %v", c)
	}
	c, _ = CosineSimilarity([]float64{0, 0}, []float64{1, 1})
	if c != 0 {
		t.Errorf("zero vector = %v, want 0", c)
	}
}

func TestCoordinateMedianAndTrimmedMean(t *testing.T) {
	vs := [][]float64{{1, 100}, {2, -100}, {3, 0}}
	med, err := CoordinateMedian(vs)
	if err != nil || !tensor.Equal(med, []float64{2, 0}, 1e-12) {
		t.Errorf("CoordinateMedian = %v, %v", med, err)
	}
	tm, err := CoordinateTrimmedMeanWorkers(vs, 1, 1)
	if err != nil || !tensor.Equal(tm, []float64{2, 0}, 1e-12) {
		t.Errorf("CoordinateTrimmedMeanWorkers = %v, %v", tm, err)
	}
	if _, err := CoordinateMedian([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("CoordinateMedian accepted ragged input")
	}
}

func TestCoordinateMeanStd(t *testing.T) {
	vs := [][]float64{{0, 2}, {4, 2}}
	mean, std, err := CoordinateMeanStd(vs)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(mean, []float64{2, 2}, 1e-12) {
		t.Errorf("mean = %v", mean)
	}
	if !tensor.Equal(std, []float64{2, 0}, 1e-12) {
		t.Errorf("std = %v", std)
	}
}

func TestPairwiseDistances(t *testing.T) {
	vs := [][]float64{{0, 0}, {3, 4}}
	d, err := PairwiseDistances(vs)
	if err != nil {
		t.Fatal(err)
	}
	if d[0][1] != 5 || d[1][0] != 5 || d[0][0] != 0 {
		t.Errorf("PairwiseDistances = %v", d)
	}
}

// Property: the median is permutation invariant and within [min, max].
func TestMedianQuick(t *testing.T) {
	f := func(raw [9]float64) bool {
		xs := raw[:]
		m1, err := Median(xs)
		if err != nil {
			return false
		}
		shuffled := append([]float64(nil), xs...)
		sort.Float64s(shuffled) // sorting is one particular permutation
		m2, _ := Median(shuffled)
		if math.IsNaN(m1) || math.IsNaN(m2) {
			return true // NaN inputs are out of scope
		}
		if m1 != m2 {
			return false
		}
		lo, hi := slices.Min(xs), slices.Max(xs)
		return m1 >= lo && m1 <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: trimmed mean lies within [min, max] of the untrimmed sample.
func TestTrimmedMeanQuick(t *testing.T) {
	f := func(raw [11]float64, k uint8) bool {
		xs := raw[:]
		for i, x := range xs {
			if math.IsNaN(x) {
				return true
			}
			xs[i] = math.Mod(x, 1e6) // avoid float64 overflow in the sum
		}
		kk := int(k) % 5
		m, err := TrimmedMean(xs, kk)
		if err != nil {
			return false
		}
		lo, hi := slices.Min(xs), slices.Max(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cosine similarity is always within [-1, 1].
func TestCosineBoundsQuick(t *testing.T) {
	f := func(a, b [6]float64) bool {
		for i := range a {
			if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
				return true
			}
			a[i] = math.Mod(a[i], 1e6) // avoid float64 overflow in the dot
			b[i] = math.Mod(b[i], 1e6)
		}
		c, err := CosineSimilarity(a[:], b[:])
		if err != nil {
			return false
		}
		return c >= -1 && c <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

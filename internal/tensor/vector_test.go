package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAddInPlace(t *testing.T) {
	a := []float64{1, 2, 3}
	if err := AddInPlace(a, []float64{4, -5, 6}); err != nil {
		t.Fatalf("AddInPlace: %v", err)
	}
	if !Equal(a, []float64{5, -3, 9}, 0) {
		t.Errorf("AddInPlace = %v", a)
	}
}

func TestDimensionMismatch(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{1, 2, 3}
	if err := AddInPlace(a, b); err == nil {
		t.Error("AddInPlace accepted mismatched lengths")
	}
	if _, err := Dot(a, b); err == nil {
		t.Error("Dot accepted mismatched lengths")
	}
	if err := Axpy(a, 1, b); err == nil {
		t.Error("Axpy accepted mismatched lengths")
	}
	if _, err := Distance(a, b); err == nil {
		t.Error("Distance accepted mismatched lengths")
	}
}

func TestScaleAndAxpy(t *testing.T) {
	v := []float64{1, -2, 3}
	got := Scale(v, -2)
	if !Equal(got, []float64{-2, 4, -6}, 0) {
		t.Errorf("Scale = %v", got)
	}
	dst := []float64{1, 1, 1}
	if err := Axpy(dst, 2, v); err != nil {
		t.Fatalf("Axpy: %v", err)
	}
	if !Equal(dst, []float64{3, -3, 7}, 0) {
		t.Errorf("Axpy = %v", dst)
	}
}

func TestNormAndDistance(t *testing.T) {
	if got := Norm([]float64{3, 4}); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	d, err := Distance([]float64{0, 0}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if d != 5 {
		t.Errorf("Distance = %v, want 5", d)
	}
}

func TestMean(t *testing.T) {
	got, err := Mean([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, []float64{3, 4}, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("Mean accepted empty input")
	}
}

func TestWeightedMean(t *testing.T) {
	got, err := WeightedMeanWorkers([][]float64{{0, 0}, {10, 10}}, []float64{3, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, []float64{2.5, 2.5}, 1e-12) {
		t.Errorf("WeightedMean = %v", got)
	}
	if _, err := WeightedMeanWorkers([][]float64{{1}}, []float64{0}, 1); err == nil {
		t.Error("WeightedMean accepted zero total weight")
	}
}

func TestClipNorm(t *testing.T) {
	v := []float64{3, 4}
	scale := ClipNorm(v, 1)
	if math.Abs(Norm(v)-1) > 1e-12 {
		t.Errorf("clipped norm = %v, want 1", Norm(v))
	}
	if math.Abs(scale-0.2) > 1e-12 {
		t.Errorf("scale = %v, want 0.2", scale)
	}
	w := []float64{0.1, 0.1}
	if got := ClipNorm(w, 1); got != 1 {
		t.Errorf("no-op clip returned scale %v", got)
	}
	z := []float64{1, 1}
	if got := ClipNorm(z, 0); got != 1 {
		t.Errorf("non-positive bound should be a no-op, got scale %v", got)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, 2}) {
		t.Error("AllFinite false on finite input")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Error("AllFinite true on NaN")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Error("AllFinite true on Inf")
	}
}

func TestCloneIndependence(t *testing.T) {
	v := []float64{1, 2}
	c := Clone(v)
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares backing array")
	}
	all := CloneAll([][]float64{{1}, {2}})
	all[0][0] = 42
	if Clone(nil) != nil {
		t.Error("Clone(nil) != nil")
	}
}

// Property: dot product is symmetric and bilinear in scaling.
func TestDotPropertiesQuick(t *testing.T) {
	f := func(a, b [8]float64, c float64) bool {
		av, bv := a[:], b[:]
		d1, _ := Dot(av, bv)
		d2, _ := Dot(bv, av)
		if math.Abs(d1-d2) > 1e-9*(1+math.Abs(d1)) {
			return false
		}
		d3, _ := Dot(Scale(av, c), bv)
		want := c * d1
		tol := 1e-9 * (1 + math.Abs(want))
		return math.Abs(d3-want) <= tol || math.IsInf(want, 0) || math.IsNaN(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for the Euclidean distance.
func TestTriangleInequalityQuick(t *testing.T) {
	f := func(a, b, c [6]float64) bool {
		ab, _ := Distance(a[:], b[:])
		bc, _ := Distance(b[:], c[:])
		ac, _ := Distance(a[:], c[:])
		return ac <= ab+bc+1e-9*(1+ab+bc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the mean lies inside the coordinate-wise min/max envelope.
// Magnitudes are folded into a finite range to avoid float64 overflow,
// which is out of scope for the property.
func TestMeanEnvelopeQuick(t *testing.T) {
	f := func(a, b, c [5]float64) bool {
		for j := range a {
			a[j] = math.Mod(a[j], 1e6)
			b[j] = math.Mod(b[j], 1e6)
			c[j] = math.Mod(c[j], 1e6)
		}
		m, err := Mean([][]float64{a[:], b[:], c[:]})
		if err != nil {
			return false
		}
		for j := range m {
			lo := math.Min(a[j], math.Min(b[j], c[j]))
			hi := math.Max(a[j], math.Max(b[j], c[j]))
			if m[j] < lo-1e-9 || m[j] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ClipNorm never increases the norm and respects the bound.
func TestClipNormQuick(t *testing.T) {
	f := func(a [7]float64, bound float64) bool {
		bound = math.Abs(bound)
		if bound == 0 || math.IsInf(bound, 0) || math.IsNaN(bound) {
			return true
		}
		v := Clone(a[:])
		before := Norm(v)
		ClipNorm(v, bound)
		after := Norm(v)
		return after <= before+1e-9 && after <= bound*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

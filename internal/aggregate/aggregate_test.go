package aggregate

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/signguard/signguard/internal/tensor"
)

// honestSet builds n gradients clustered around center with the given
// per-coordinate spread.
func honestSet(seed int64, n, d int, center, spread float64) [][]float64 {
	rng := tensor.NewRNG(seed)
	out := make([][]float64, n)
	for i := range out {
		g := make([]float64, d)
		for j := range g {
			g[j] = center + spread*rng.NormFloat64()
		}
		out[i] = g
	}
	return out
}

func TestMeanRule(t *testing.T) {
	grads := [][]float64{{1, 2}, {3, 4}}
	res, err := NewMean().Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(res.Gradient, []float64{2, 3}, 1e-12) {
		t.Errorf("Mean = %v", res.Gradient)
	}
	if len(res.Selected) != 2 {
		t.Errorf("Mean selected %v", res.Selected)
	}
	if _, err := NewMean().Aggregate(nil); err == nil {
		t.Error("accepted empty input")
	}
	if _, err := NewMean().Aggregate([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("accepted ragged input")
	}
}

func TestTrimmedMeanResistsOutliers(t *testing.T) {
	grads := [][]float64{{1}, {2}, {3}, {1e9}, {-1e9}}
	res, err := NewTrimmedMean(1).Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Gradient[0]-2) > 1e-9 {
		t.Errorf("TrMean = %v, want 2", res.Gradient[0])
	}
	if _, err := NewTrimmedMean(3).Aggregate(grads); err == nil {
		t.Error("accepted K too large")
	}
}

func TestMedianResistsMinorityOutliers(t *testing.T) {
	grads := [][]float64{{1, -5}, {2, -4}, {3, -3}, {1e9, 1e9}}
	res, err := NewMedian().Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gradient[0] > 10 || res.Gradient[1] > 0 {
		t.Errorf("Median = %v dominated by outlier", res.Gradient)
	}
}

func TestGeoMedMinimizesDistanceSum(t *testing.T) {
	grads := honestSet(1, 15, 4, 1.0, 0.5)
	res, err := NewGeoMed().Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	sumTo := func(x []float64) float64 {
		var s float64
		for _, g := range grads {
			d, _ := tensor.Distance(x, g)
			s += d
		}
		return s
	}
	got := sumTo(res.Gradient)
	mean, _ := tensor.Mean(grads)
	if got > sumTo(mean)+1e-6 {
		t.Errorf("geometric median (%v) worse than the mean (%v)", got, sumTo(mean))
	}
	// Perturbing the solution should not improve it (local optimality).
	for dim := 0; dim < 4; dim++ {
		for _, delta := range []float64{0.05, -0.05} {
			probe := tensor.Clone(res.Gradient)
			probe[dim] += delta
			if sumTo(probe) < got-1e-6 {
				t.Errorf("perturbation improves GeoMed objective: %v < %v", sumTo(probe), got)
			}
		}
	}
}

func TestGeoMedResistsOutlier(t *testing.T) {
	grads := honestSet(2, 20, 3, 0, 0.1)
	grads = append(grads, []float64{1e6, 1e6, 1e6})
	res, err := NewGeoMed().Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.Norm(res.Gradient) > 10 {
		t.Errorf("GeoMed dragged to %v by one outlier", tensor.Norm(res.Gradient))
	}
}

func TestKrumSelectsFromInputs(t *testing.T) {
	grads := honestSet(3, 12, 5, 0, 1)
	k := NewMultiKrum(2, 1)
	res, err := k.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Fatalf("Krum selected %d gradients", len(res.Selected))
	}
	found := false
	for _, g := range grads {
		if tensor.Equal(res.Gradient, g, 0) {
			found = true
			break
		}
	}
	if !found {
		t.Error("Krum output is not one of its inputs")
	}
}

func TestKrumRejectsFarOutliers(t *testing.T) {
	grads := honestSet(4, 10, 4, 0, 0.2)
	// Two colluding outliers far away.
	grads = append(grads, []float64{50, 50, 50, 50}, []float64{50, 50, 50, 51})
	res, err := NewMultiKrum(2, 8).Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range res.Selected {
		if idx >= 10 {
			t.Errorf("Multi-Krum selected outlier %d", idx)
		}
	}
	if _, err := NewMultiKrum(5, 1).Aggregate(grads[:5]); err == nil {
		t.Error("Krum accepted n < 2F+3")
	}
}

func TestBulyanBounds(t *testing.T) {
	grads := honestSet(5, 18, 6, 1, 0.5)
	res, err := NewBulyan(3).Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	// Output must lie in the coordinate-wise envelope of the inputs.
	for j := 0; j < 6; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, g := range grads {
			lo = math.Min(lo, g[j])
			hi = math.Max(hi, g[j])
		}
		if res.Gradient[j] < lo-1e-9 || res.Gradient[j] > hi+1e-9 {
			t.Errorf("Bulyan coordinate %d = %v outside [%v, %v]", j, res.Gradient[j], lo, hi)
		}
	}
	if len(res.Selected) != 18-2*3 {
		t.Errorf("Bulyan selected %d, want θ = %d", len(res.Selected), 18-2*3)
	}
	if _, err := NewBulyan(5).Aggregate(grads); err == nil {
		t.Error("Bulyan accepted n < 4F+2")
	}
}

func TestBulyanRejectsColludingOutliers(t *testing.T) {
	grads := honestSet(6, 16, 4, 0, 0.3)
	for i := 0; i < 3; i++ {
		grads = append(grads, []float64{30, 30, 30, 30})
	}
	res, err := NewBulyan(3).Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.Norm(res.Gradient) > 5 {
		t.Errorf("Bulyan aggregate norm %v pulled by outliers", tensor.Norm(res.Gradient))
	}
}

func TestDnCFiltersSpectralOutliers(t *testing.T) {
	// Honest gradients near zero; 4 colluders displaced along a common
	// direction — exactly the structure DnC's top singular vector finds.
	grads := honestSet(7, 20, 30, 0, 0.5)
	dir := tensor.RandUnitVector(tensor.NewRNG(8), 30)
	for i := 0; i < 4; i++ {
		bad := tensor.Scale(dir, 25)
		grads = append(grads, bad)
	}
	d := NewDnC(4, 99)
	res, err := d.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range res.Selected {
		if idx >= 20 {
			t.Errorf("DnC kept colluder %d", idx)
		}
	}
	if tensor.Norm(res.Gradient) > 3 {
		t.Errorf("DnC aggregate norm %v", tensor.Norm(res.Gradient))
	}
}

func TestDnCValidation(t *testing.T) {
	grads := honestSet(9, 4, 5, 0, 1)
	d := NewDnC(4, 1)
	if _, err := d.Aggregate(grads); err == nil {
		t.Error("DnC accepted removing all gradients")
	}
}

// Property: Mean, Median and TrimmedMean are permutation invariant.
func TestPermutationInvarianceQuick(t *testing.T) {
	rules := []Rule{NewMean(), NewMedian(), NewTrimmedMean(2)}
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		grads := honestSet(seed, 9, 4, 0, 1)
		perm := rng.Perm(len(grads))
		shuffled := make([][]float64, len(grads))
		for i, p := range perm {
			shuffled[p] = grads[i]
		}
		for _, r := range rules {
			a, err := r.Aggregate(grads)
			if err != nil {
				return false
			}
			b, err := r.Aggregate(shuffled)
			if err != nil {
				return false
			}
			if !tensor.Equal(a.Gradient, b.Gradient, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: coordinate-wise rules stay inside the input envelope.
func TestEnvelopeQuick(t *testing.T) {
	rules := []Rule{NewMean(), NewMedian(), NewTrimmedMean(1), NewGeoMed()}
	f := func(seed int64) bool {
		grads := honestSet(seed, 7, 3, 0, 2)
		for _, r := range rules {
			res, err := r.Aggregate(grads)
			if err != nil {
				return false
			}
			for j := 0; j < 3; j++ {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, g := range grads {
					lo = math.Min(lo, g[j])
					hi = math.Max(hi, g[j])
				}
				if res.Gradient[j] < lo-1e-6 || res.Gradient[j] > hi+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: with all-identical gradients every rule returns that gradient.
func TestConsensusFixedPointQuick(t *testing.T) {
	rules := []Rule{NewMean(), NewMedian(), NewTrimmedMean(2), NewGeoMed(), NewMultiKrum(2, 3), NewBulyan(2)}
	f := func(raw [4]float64, nRaw uint8) bool {
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				return true
			}
			raw[i] = math.Mod(raw[i], 1e3)
		}
		n := 12 + int(nRaw%5)
		grads := make([][]float64, n)
		for i := range grads {
			grads[i] = tensor.Clone(raw[:])
		}
		for _, r := range rules {
			res, err := r.Aggregate(grads)
			if err != nil {
				return false
			}
			if !tensor.Equal(res.Gradient, raw[:], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDnCDeterministicWithSameSeed(t *testing.T) {
	grads := honestSet(31, 15, 40, 0.2, 1)
	a, err := NewDnC(3, 42).Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDnC(3, 42).Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(a.Gradient, b.Gradient, 0) {
		t.Error("identically-seeded DnC runs disagree")
	}
	if len(a.Selected) != len(b.Selected) {
		t.Error("identically-seeded DnC selections disagree")
	}
}

func TestMultiKrumSelectionCount(t *testing.T) {
	grads := honestSet(32, 20, 8, 0, 1)
	res, err := NewMultiKrum(4, 12).Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 12 {
		t.Errorf("Multi-Krum selected %d, want 12", len(res.Selected))
	}
	// Selected indices must be unique and sorted.
	for i := 1; i < len(res.Selected); i++ {
		if res.Selected[i] <= res.Selected[i-1] {
			t.Fatalf("selection not strictly increasing: %v", res.Selected)
		}
	}
}

func TestGeoMedWeiszfeldSingularity(t *testing.T) {
	// Many coincident points: Weiszfeld's weights are singular at a data
	// point; the implementation must not NaN.
	grads := [][]float64{{1, 1}, {1, 1}, {1, 1}, {2, 2}}
	res, err := NewGeoMed().Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllFinite(res.Gradient) {
		t.Fatalf("GeoMed produced non-finite output: %v", res.Gradient)
	}
	// The majority point is the geometric median here.
	if d, _ := tensor.Distance(res.Gradient, []float64{1, 1}); d > 0.1 {
		t.Errorf("GeoMed = %v, want ≈ (1,1)", res.Gradient)
	}
}

package core

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// benignGrads returns n gradients that look like honest stochastic
// gradients: a shared signal direction plus per-client noise.
func benignGrads(seed int64, n, d int) [][]float64 {
	rng := tensor.NewRNG(seed)
	signal := tensor.RandNormal(rng, d, 0, 1)
	out := make([][]float64, n)
	for i := range out {
		g := tensor.Clone(signal)
		for j := range g {
			g[j] += 1.5 * rng.NormFloat64()
		}
		out[i] = g
	}
	return out
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseNormFilter, cfg.UseSignFilter, cfg.UseNormClip = false, false, false
	if _, err := New(cfg); err == nil {
		t.Error("accepted config with no components")
	}
	cfg = DefaultConfig()
	cfg.CoordFraction = 2
	if _, err := New(cfg); err == nil {
		t.Error("accepted coordinate fraction > 1")
	}
}

func TestNames(t *testing.T) {
	if NewPlain(1).Name() != "SignGuard" {
		t.Error("plain name")
	}
	if NewSim(1).Name() != "SignGuard-Sim" {
		t.Error("sim name")
	}
	if NewDist(1).Name() != "SignGuard-Dist" {
		t.Error("dist name")
	}
}

// gradNorms returns each gradient's l2 norm and their median.
func gradNorms(t *testing.T, grads [][]float64) ([]float64, float64) {
	t.Helper()
	norms := make([]float64, len(grads))
	for i, g := range grads {
		norms[i] = tensor.Norm(g)
	}
	med, err := stats.Median(norms)
	if err != nil {
		t.Fatal(err)
	}
	return norms, med
}

func TestNormBand(t *testing.T) {
	norms, med := gradNorms(t, [][]float64{{1, 0}, {1.2, 0}, {0.9, 0}, {100, 0}, {0.001, 0}})
	kept, err := normBand(norms, med)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(kept, want) {
		t.Errorf("kept %v, want %v", kept, want)
	}
}

func TestNormBandAllZero(t *testing.T) {
	norms, med := gradNorms(t, [][]float64{{0, 0}, {0, 0}, {1, 1}})
	kept, err := normBand(norms, med)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(kept, want) {
		t.Errorf("kept %v when the median is zero, want the zero-norm gradients %v", kept, want)
	}
}

func TestSignClusterSeparatesLIE(t *testing.T) {
	benign := benignGrads(3, 40, 400)
	// LIE-style gradients: coordinate-wise mean minus z·std.
	mean, std, err := stats.CoordinateMeanStd(benign)
	if err != nil {
		t.Fatal(err)
	}
	grads := tensor.CloneAll(benign)
	for k := 0; k < 10; k++ {
		gm := make([]float64, len(mean))
		for j := range gm {
			gm[j] = mean[j] - 1.2*std[j]
		}
		grads = append(grads, gm)
	}
	features, err := signFeatures(grads, nil, 0.5, NoSimilarity, tensor.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	kept, err := signCluster(features)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range kept {
		if i >= 40 {
			t.Errorf("sign filter kept LIE gradient %d", i)
		}
	}
	if len(kept) < 25 {
		t.Errorf("sign filter kept only %d honest gradients", len(kept))
	}
}

func TestSignFeatures(t *testing.T) {
	grads := benignGrads(7, 10, 100)
	rng := tensor.NewRNG(2)
	for _, sim := range []Similarity{NoSimilarity, CosineSimilarity, DistanceSimilarity} {
		feats, err := signFeatures(grads, nil, 0.2, sim, rng)
		if err != nil {
			t.Fatalf("%v: %v", sim, err)
		}
		wantDim := 3
		if sim != NoSimilarity {
			wantDim = 4
		}
		for _, row := range feats {
			if len(row) != wantDim {
				t.Fatalf("%v: feature dim %d, want %d", sim, len(row), wantDim)
			}
			if s := row[0] + row[1] + row[2]; math.Abs(s-1) > 1e-9 {
				t.Errorf("%v: sign stats sum to %v", sim, s)
			}
		}
	}
}

// A non-finite feature row is left out of the clustering and never kept;
// only a matrix without a finite row fails.
func TestSignClusterSkipsNonFiniteRows(t *testing.T) {
	nan := math.NaN()
	features := [][]float64{{1, 0, 0}, {1, 0, nan}, {0.99, 0.01, 0}, {0, 0, 1}, {0.98, 0.02, 0}}
	kept, err := signCluster(features)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 2, 4}; !reflect.DeepEqual(kept, want) {
		t.Errorf("kept %v, want %v", kept, want)
	}
	if _, err := signCluster([][]float64{{nan, 0, 0}, {0, math.Inf(1), 0}}); err == nil {
		t.Error("clustered a matrix with no finite row")
	}
}

// When the norm band and the sign cluster keep disjoint sets, the round is
// not failed: the sign filter's set is returned, ascending. Seven
// gradients share one sign pattern but sit outside the norm band — four
// far below the median norm, three far above it — while the three
// in-band gradients carry the opposite signs.
func TestSignGuardDisjointFiltersFallBackToSignSet(t *testing.T) {
	const d = 100
	pattern := func(sign, scale float64, zeros int) []float64 {
		g := make([]float64, d)
		for j := zeros; j < d; j++ {
			g[j] = sign * scale
		}
		return g
	}
	var grads [][]float64
	var wantSign []int
	for i := 0; i < 10; i++ {
		switch {
		case i%3 == 1: // 1, 4, 7: in band, negative signs
			grads = append(grads, pattern(-1, 1, i/3))
		case i < 6: // 0, 2, 3, 5: positive, far below the median norm
			grads = append(grads, pattern(1, 1e-4, i))
			wantSign = append(wantSign, i)
		default: // 6, 8, 9: positive, far above it
			grads = append(grads, pattern(1, 1e3, i))
			wantSign = append(wantSign, i)
		}
	}
	cfg := DefaultConfig()
	cfg.CoordFraction = 1
	sg, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sg.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Selected, wantSign) {
		t.Errorf("selected %v, want the sign filter's set %v", res.Selected, wantSign)
	}
	if !tensor.AllFinite(res.Gradient) {
		t.Error("non-finite aggregate")
	}
}

func TestSignGuardFiltersObviousAttack(t *testing.T) {
	benign := benignGrads(11, 40, 300)
	grads := tensor.CloneAll(benign)
	for k := 0; k < 10; k++ {
		grads = append(grads, tensor.Scale(benign[k], -1)) // sign flip
	}
	sg := NewSim(3)
	res, err := sg.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 {
		t.Fatal("no selection after aggregation")
	}
	var byzKept int
	for _, i := range res.Selected {
		if i >= 40 {
			byzKept++
		}
	}
	if byzKept > 2 {
		t.Errorf("SignGuard-Sim kept %d of 10 sign-flipped gradients", byzKept)
	}
	if !tensor.AllFinite(res.Gradient) {
		t.Error("non-finite aggregate")
	}
}

func TestSignGuardNormClipBoundsOutput(t *testing.T) {
	benign := benignGrads(13, 30, 100)
	grads := tensor.CloneAll(benign)
	// A huge-norm gradient that still has benign-like sign stats: scaled copy.
	grads = append(grads, tensor.Scale(benign[0], 50))
	sg := NewPlain(1)
	res, err := sg.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	norms := make([]float64, len(grads))
	for i, g := range grads {
		norms[i] = tensor.Norm(g)
	}
	med, _ := stats.Median(norms)
	// With clipping at the median norm, the aggregate cannot exceed it.
	if tensor.Norm(res.Gradient) > med*(1+1e-9) {
		t.Errorf("aggregate norm %v exceeds median %v", tensor.Norm(res.Gradient), med)
	}
	// The scaled gradient violates the upper bound R=3 and must be gone.
	for _, i := range res.Selected {
		if i == 30 {
			t.Error("norm filter kept the 50x gradient")
		}
	}
}

// SignGuard keeps the previous aggregate as its similarity reference. A
// round's selection is its own slice: once the next round has run it still
// equals a fresh instance's first round. Two instances of one seed fed the
// same rounds select the same sets.
func TestSignGuardStateAcrossRounds(t *testing.T) {
	grads := benignGrads(17, 20, 80)
	twoRounds := func() (first, second []int) {
		sg := NewSim(9)
		for _, sel := range []*[]int{&first, &second} {
			res, err := sg.Aggregate(grads)
			if err != nil {
				t.Fatal(err)
			}
			*sel = res.Selected
		}
		return first, second
	}
	first, second := twoRounds()
	if len(first) == 0 || len(second) == 0 {
		t.Fatalf("empty selection: %v then %v", first, second)
	}
	fresh, err := NewSim(9).Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, fresh.Selected) {
		t.Errorf("round 1 selection reads %v after round 2, a fresh round 1 %v", first, fresh.Selected)
	}
	if _, twin := twoRounds(); !reflect.DeepEqual(second, twin) {
		t.Errorf("round 2 selections of one seed differ: %v vs %v", second, twin)
	}
}

func TestSignGuardComponentToggles(t *testing.T) {
	benign := benignGrads(19, 25, 120)
	grads := tensor.CloneAll(benign)
	grads = append(grads, tensor.RandNormal(tensor.NewRNG(1), 120, 0, 30))

	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"threshold-only", func(c *Config) { c.UseSignFilter = false; c.UseNormClip = false }},
		{"cluster-only", func(c *Config) { c.UseNormFilter = false; c.UseNormClip = false }},
		{"clip-only", func(c *Config) { c.UseNormFilter = false; c.UseSignFilter = false }},
	} {
		cfg := DefaultConfig()
		tc.mod(&cfg)
		sg, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := sg.Aggregate(grads)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tensor.AllFinite(res.Gradient) {
			t.Errorf("%s: non-finite aggregate", tc.name)
		}
	}
}

// Property: SignGuard's selected set is always non-empty, all indices are
// valid, and the aggregate is finite, for arbitrary mixtures of benign and
// scaled gradients.
func TestSignGuardRobustnessQuick(t *testing.T) {
	f := func(seed int64, scaleRaw uint8) bool {
		scale := 1 + float64(scaleRaw%50)
		benign := benignGrads(seed, 15, 60)
		grads := tensor.CloneAll(benign)
		grads = append(grads, tensor.Scale(benign[0], -scale))
		sg := NewPlain(seed)
		res, err := sg.Aggregate(grads)
		if err != nil {
			return false
		}
		if len(res.Selected) == 0 || len(res.Selected) > len(grads) {
			return false
		}
		for _, i := range res.Selected {
			if i < 0 || i >= len(grads) {
				return false
			}
		}
		return tensor.AllFinite(res.Gradient)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: with clipping enabled the aggregate norm never exceeds the
// median input norm (the clipping bound), since it is a mean of vectors
// that are individually capped there.
func TestSignGuardClipBoundQuick(t *testing.T) {
	f := func(seed int64) bool {
		grads := benignGrads(seed, 12, 40)
		sg := NewPlain(seed + 1)
		res, err := sg.Aggregate(grads)
		if err != nil {
			return false
		}
		norms := make([]float64, len(grads))
		for i, g := range grads {
			norms[i] = tensor.Norm(g)
		}
		med, _ := stats.Median(norms)
		return tensor.Norm(res.Gradient) <= med*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestIntersect(t *testing.T) {
	got := intersect([]int{1, 3, 5, 7}, []int{3, 7, 9})
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Errorf("intersect = %v", got)
	}
	if len(intersect(nil, []int{1})) != 0 {
		t.Error("intersect with empty set should be empty")
	}
}

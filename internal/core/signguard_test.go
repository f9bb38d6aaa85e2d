package core

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/signguard/signguard/internal/attack"
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
	cfg.LowerBound, cfg.UpperBound = 2, 1
	if _, err := New(cfg); err == nil {
		t.Error("accepted inverted norm bounds")
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

func TestNormThresholdFilter(t *testing.T) {
	grads := [][]float64{{1, 0}, {1.2, 0}, {0.9, 0}, {100, 0}, {0.001, 0}}
	ctx, err := NewFilterContext(grads, nil, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	f := NewNormThresholdFilter(0.1, 3.0)
	kept, err := f.Apply(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{0: true, 1: true, 2: true}
	if len(kept) != 3 {
		t.Fatalf("kept %v", kept)
	}
	for _, i := range kept {
		if !want[i] {
			t.Errorf("kept outlier %d", i)
		}
	}
	// Invalid bounds rejected.
	bad := NewNormThresholdFilter(3, 1)
	if _, err := bad.Apply(ctx); err == nil {
		t.Error("accepted inverted bounds")
	}
}

func TestNormThresholdAllZero(t *testing.T) {
	grads := [][]float64{{0, 0}, {0, 0}, {1, 1}}
	ctx, err := NewFilterContext(grads, nil, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	kept, err := NewNormThresholdFilter(0.1, 3).Apply(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range kept {
		if i == 2 {
			t.Error("kept the only non-zero gradient when the median is zero")
		}
	}
}

func TestSignClusterFilterSeparatesLIE(t *testing.T) {
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
	ctx, err := NewFilterContext(grads, nil, tensor.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	f := NewSignClusterFilter(0.5, NoSimilarity)
	kept, err := f.Apply(ctx)
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

func TestSignClusterFeatures(t *testing.T) {
	grads := benignGrads(7, 10, 100)
	ctx, err := NewFilterContext(grads, nil, tensor.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, sim := range []Similarity{NoSimilarity, CosineSimilarity, DistanceSimilarity} {
		f := NewSignClusterFilter(0.2, sim)
		feats, err := f.Features(ctx)
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

func TestSignGuardKMeansVariant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algo = KMeansAlgo
	sg, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	benign := benignGrads(23, 30, 200)
	grads := tensor.CloneAll(benign)
	// Identical attack vectors — the case the paper says 2-means handles.
	lie := attack.NewLIE(1.0)
	ctx := &attack.Context{Benign: benign[:22], ByzOwn: benign[22:], Rng: tensor.NewRNG(4)}
	malicious, err := lie.Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	grads = append(grads[:22], malicious...)
	res, err := sg.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range res.Selected {
		if i >= 22 {
			t.Errorf("KMeans variant kept malicious gradient %d", i)
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

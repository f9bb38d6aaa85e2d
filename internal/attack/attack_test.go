package attack

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// makeContext builds an attack context with nBenign + nByz honest
// gradients drawn around center with the given spread.
func makeContext(seed int64, nBenign, nByz, d int, center, spread float64) *Context {
	rng := tensor.NewRNG(seed)
	gen := func(n int) [][]float64 {
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
	return &Context{Benign: gen(nBenign), ByzOwn: gen(nByz), Rng: tensor.NewRNG(seed + 1)}
}

func TestContextValidation(t *testing.T) {
	ctx := makeContext(1, 5, 2, 4, 0, 1)
	if ctx.N() != 7 || ctx.NumByz() != 2 {
		t.Errorf("N=%d NumByz=%d", ctx.N(), ctx.NumByz())
	}
	bad := &Context{Benign: ctx.Benign, ByzOwn: nil, Rng: ctx.Rng}
	if _, err := NewNone().Craft(bad); err == nil {
		t.Error("accepted zero Byzantine clients")
	}
	bad2 := &Context{Benign: [][]float64{{1, 2}}, ByzOwn: [][]float64{{1}}, Rng: ctx.Rng}
	if _, err := NewNone().Craft(bad2); err == nil {
		t.Error("accepted mismatched dimensions")
	}
	bad3 := &Context{Benign: ctx.Benign, ByzOwn: ctx.ByzOwn}
	if _, err := NewNone().Craft(bad3); err == nil {
		t.Error("accepted nil rng")
	}
}

func TestNoneReturnsOwnGradients(t *testing.T) {
	ctx := makeContext(2, 4, 3, 5, 1, 0.5)
	out, err := NewNone().Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d gradients", len(out))
	}
	for i := range out {
		if !tensor.Equal(out[i], ctx.ByzOwn[i], 0) {
			t.Errorf("gradient %d differs from honest", i)
		}
	}
	// Must be copies, not aliases.
	out[0][0] = 1e9
	if ctx.ByzOwn[0][0] == 1e9 {
		t.Error("None aliases the honest gradients")
	}
}

// stdDev is the population standard deviation of xs (dividing by n).
func stdDev(xs []float64) float64 {
	m, _ := stats.Mean(xs)
	var s float64
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}

func TestRandomAttackDistribution(t *testing.T) {
	ctx := makeContext(3, 5, 4, 2000, 7, 0.1)
	a := NewRandom()
	out, err := a.Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range out {
		m, _ := stats.Mean(g)
		s := stdDev(g)
		if math.Abs(m) > 0.06 || math.Abs(s-0.5) > 0.05 {
			t.Errorf("random gradient stats mean=%v std=%v, want ~0/0.5", m, s)
		}
	}
}

func TestNoiseAttackPerturbsOwn(t *testing.T) {
	ctx := makeContext(4, 5, 2, 1000, 3, 0.01)
	out, err := NewNoise().Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	diff := make([]float64, len(out[0]))
	for i := range diff {
		diff[i] = out[0][i] - ctx.ByzOwn[0][i]
	}
	s := stdDev(diff)
	if math.Abs(s-0.5) > 0.05 {
		t.Errorf("noise std = %v, want ~0.5", s)
	}
}

func TestSignFlipAndReverse(t *testing.T) {
	ctx := makeContext(5, 4, 2, 6, 1, 0.3)
	out, err := NewSignFlip().Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if !tensor.Equal(out[i], tensor.Scale(ctx.ByzOwn[i], -1), 1e-12) {
			t.Errorf("sign-flip gradient %d wrong", i)
		}
	}
	rev, err := NewReverse(100).Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rev {
		if !tensor.Equal(rev[i], tensor.Scale(ctx.ByzOwn[i], -100), 1e-9) {
			t.Errorf("reverse gradient %d wrong", i)
		}
	}
	if _, err := NewReverse(-1).Craft(ctx); err == nil {
		t.Error("Reverse accepted non-positive scale")
	}
}

// TestLocal: a networked client crafts from its own gradient alone, which
// Local leaves untouched, and a crafting error comes back as-is.
func TestLocal(t *testing.T) {
	g := []float64{1, -2, 0.5}
	out, err := Local(NewReverse(5), g, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(out, []float64{-5, 10, -2.5}, 0) || !tensor.Equal(g, []float64{1, -2, 0.5}, 0) {
		t.Errorf("Local(Reverse 5) = %v from %v", out, g)
	}
	if _, err := Local(NewReverse(-1), g, tensor.NewRNG(1)); err == nil {
		t.Error("Local swallowed the attack's error")
	}
}

func TestLabelFlipPoisonsData(t *testing.T) {
	lf := NewLabelFlip()
	xs := []data.Example{{Label: 1}, {Label: 8}}
	poisoned, err := lf.PoisonData(xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if poisoned[0].Label != 8 || poisoned[1].Label != 1 {
		t.Errorf("poisoned labels = %d, %d", poisoned[0].Label, poisoned[1].Label)
	}
	ctx := makeContext(6, 3, 2, 4, 0, 1)
	out, err := lf.Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(out[0], ctx.ByzOwn[0], 0) {
		t.Error("LabelFlip.Craft should pass gradients through")
	}
}

func TestLIEEquation(t *testing.T) {
	// LIE must produce exactly µ − z·σ elementwise.
	ctx := makeContext(7, 10, 3, 50, 2, 1)
	a := NewLIE(0.3)
	out, err := a.Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mean, std, err := stats.CoordinateMeanStd(ctx.AllHonest())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(mean))
	for j := range want {
		want[j] = mean[j] - 0.3*std[j]
	}
	for i := range out {
		if !tensor.Equal(out[i], want, 1e-9) {
			t.Errorf("LIE gradient %d deviates from µ−zσ", i)
		}
	}
}

func TestLIEAutoZ(t *testing.T) {
	ctx := makeContext(8, 40, 10, 20, 1, 0.5)
	a := NewLIE(0) // derive z_max from Eq. 2
	out, err := a.Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mean, std, _ := stats.CoordinateMeanStd(ctx.AllHonest())
	zWant := stats.LIEZMax(50, 10)
	for j := 0; j < 20; j++ {
		want := mean[j] - zWant*std[j]
		if math.Abs(out[0][j]-want) > 1e-9 {
			t.Fatalf("auto-z coordinate %d = %v, want %v", j, out[0][j], want)
		}
	}
}

// TestProposition1 numerically checks the paper's Proposition 1: the LIE
// gradient can be closer to the true average — and more cosine-similar to
// it — than some honest gradient, which is why distance- and
// similarity-based defenses miss it.
func TestProposition1(t *testing.T) {
	ctx := makeContext(9, 40, 10, 500, 0.05, 1.0)
	honest := ctx.AllHonest()
	avg, _ := tensor.Mean(honest)
	a := NewLIE(0.1) // small z per the proposition
	out, err := a.Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gm := out[0]
	dGm, _ := tensor.Distance(gm, avg)
	cGm, _ := stats.CosineSimilarity(gm, avg)
	var closerExists, moreSimilarExists bool
	for _, g := range honest {
		d, _ := tensor.Distance(g, avg)
		c, _ := stats.CosineSimilarity(g, avg)
		if dGm < d {
			closerExists = true
		}
		if cGm > c {
			moreSimilarExists = true
		}
	}
	if !closerExists {
		t.Error("no honest gradient farther from the mean than the LIE gradient (Eq. 6)")
	}
	if !moreSimilarExists {
		t.Error("no honest gradient less cosine-similar than the LIE gradient (Eq. 7)")
	}
	// ...while the SIGN statistics give it away (Section III): with honest
	// coordinates centered near zero and σ ≈ 1, µ−zσ is negative in far
	// more coordinates than an honest gradient.
	ssHonest, _ := stats.ComputeSignStats(avg)
	ssLIE, _ := stats.ComputeSignStats(gm)
	if ssLIE.Neg <= ssHonest.Neg {
		t.Errorf("LIE should shift mass to negative signs: honest neg=%v, LIE neg=%v",
			ssHonest.Neg, ssLIE.Neg)
	}
}

func TestByzMeanControlsTheMean(t *testing.T) {
	ctx := makeContext(10, 40, 10, 30, 1, 0.5)
	a := NewByzMean()
	out, err := a.Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("got %d gradients", len(out))
	}
	gm1 := out[0]
	// The defining property (Eq. 8): mean over all submitted gradients
	// (benign + malicious) equals g_m1 exactly.
	all := append(tensor.CloneAll(ctx.Benign), out...)
	mean, _ := tensor.Mean(all)
	if !tensor.Equal(mean, gm1, 1e-6) {
		d, _ := tensor.Distance(mean, gm1)
		t.Errorf("global mean deviates from g_m1 by %v", d)
	}
}

func TestByzMeanSingleByzantine(t *testing.T) {
	ctx := makeContext(11, 10, 1, 8, 0, 1)
	out, err := NewByzMean().Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d gradients", len(out))
	}
}

func TestMinMaxConstraint(t *testing.T) {
	ctx := makeContext(12, 30, 8, 40, 0.5, 1)
	out, err := NewMinMax().Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gm := out[0]
	honest := ctx.AllHonest()
	var maxPair, maxToGm float64
	for i := range honest {
		for j := i + 1; j < len(honest); j++ {
			d, _ := tensor.SquaredDistance(honest[i], honest[j])
			maxPair = math.Max(maxPair, d)
		}
		d, _ := tensor.SquaredDistance(gm, honest[i])
		maxToGm = math.Max(maxToGm, d)
	}
	if maxToGm > maxPair*(1+1e-6) {
		t.Errorf("Min-Max constraint violated: %v > %v", maxToGm, maxPair)
	}
	// The attack should exploit most of the budget (γ near the boundary).
	if maxToGm < 0.5*maxPair {
		t.Errorf("Min-Max too timid: %v vs budget %v", maxToGm, maxPair)
	}
	// All Byzantine clients send the same vector.
	for i := 1; i < len(out); i++ {
		if !tensor.Equal(out[i], gm, 0) {
			t.Error("Min-Max cohort not unanimous")
		}
	}
}

func TestMinSumConstraint(t *testing.T) {
	ctx := makeContext(13, 30, 8, 40, 0.5, 1)
	out, err := NewMinSum().Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gm := out[0]
	honest := ctx.AllHonest()
	var maxTotal float64
	for i := range honest {
		var total float64
		for j := range honest {
			d, _ := tensor.SquaredDistance(honest[i], honest[j])
			total += d
		}
		maxTotal = math.Max(maxTotal, total)
	}
	var gmTotal float64
	for _, g := range honest {
		d, _ := tensor.SquaredDistance(gm, g)
		gmTotal += d
	}
	if gmTotal > maxTotal*(1+1e-6) {
		t.Errorf("Min-Sum constraint violated: %v > %v", gmTotal, maxTotal)
	}
}

func TestMinMaxPerturbationVariants(t *testing.T) {
	ctx := makeContext(14, 20, 5, 25, 1, 0.5)
	for _, p := range []Perturbation{InverseStd, InverseUnit, InverseSign} {
		a := NewMinMaxWithPerturbation(p)
		if _, err := a.Craft(ctx); err != nil {
			t.Errorf("perturbation %v: %v", p, err)
		}
	}
	if InverseStd.String() == "" || Perturbation(99).String() == "" {
		t.Error("Perturbation.String should never be empty")
	}
}

func TestTimeVarying(t *testing.T) {
	pool := []Attack{NewNone(), NewSignFlip()}
	tv, err := NewTimeVarying(pool, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx := makeContext(15, 6, 2, 5, 1, 0.2)
	var names []string
	for round := 0; round < 30; round++ {
		if _, err := tv.Craft(ctx); err != nil {
			t.Fatal(err)
		}
		names = append(names, tv.current.Name())
	}
	// The active attack must be constant within each switch window.
	for w := 0; w+3 <= len(names); w += 3 {
		if names[w] != names[w+1] || names[w] != names[w+2] {
			t.Errorf("attack changed inside window starting at %d: %v", w, names[w:w+3])
		}
	}
	// Over 10 windows both candidates should appear (probabilistically
	// certain with this seed).
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	if len(seen) < 2 {
		t.Errorf("only drew %v", seen)
	}
	if _, err := NewTimeVarying(nil, 3, 1); err == nil {
		t.Error("accepted empty pool")
	}
	if _, err := NewTimeVarying(pool, 0, 1); err == nil {
		t.Error("accepted zero switch interval")
	}
	if len(DefaultTimeVaryingPool()) < 6 {
		t.Error("default pool suspiciously small")
	}
}

// Property: every attack returns exactly NumByz gradients of the right
// dimension, and never mutates the honest inputs.
func TestAttackContractQuick(t *testing.T) {
	attacks := []Attack{
		NewNone(), NewRandom(), NewNoise(), NewSignFlip(), NewReverse(3),
		NewLabelFlip(), NewLIE(0.3), NewByzMean(), NewMinMax(), NewMinSum(),
	}
	f := func(seed int64) bool {
		ctx := makeContext(seed, 8, 3, 12, 0.5, 1)
		before := tensor.CloneAll(ctx.AllHonest())
		for _, a := range attacks {
			out, err := a.Craft(ctx)
			if err != nil {
				return false
			}
			if len(out) != 3 {
				return false
			}
			for _, g := range out {
				if len(g) != 12 || !tensor.AllFinite(g) {
					return false
				}
			}
		}
		after := ctx.AllHonest()
		for i := range before {
			if !tensor.Equal(before[i], after[i], 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

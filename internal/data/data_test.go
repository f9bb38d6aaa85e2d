package data

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/signguard/signguard/internal/tensor"
)

func TestGenerateSynthImage(t *testing.T) {
	cfg := SynthImageConfig{
		Name: "t", Classes: 4, C: 1, H: 4, W: 4, Train: 200, Test: 50,
		Margin: 3, NoiseStd: 0.5, SmoothPass: 1, Seed: 1,
	}
	ds, err := GenerateSynthImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Train) != 200 || len(ds.Test) != 50 {
		t.Fatalf("sizes = %d/%d", len(ds.Train), len(ds.Test))
	}
	if ds.FeatureDim() != 16 || ds.IsText() {
		t.Errorf("metadata: dim=%d text=%v", ds.FeatureDim(), ds.IsText())
	}
	seen := map[int]bool{}
	for _, e := range ds.Train {
		if len(e.Features) != 16 {
			t.Fatalf("feature dim %d", len(e.Features))
		}
		if e.Label < 0 || e.Label >= 4 {
			t.Fatalf("label %d", e.Label)
		}
		seen[e.Label] = true
	}
	if len(seen) != 4 {
		t.Errorf("only %d distinct labels", len(seen))
	}
}

func TestSynthImageDeterminism(t *testing.T) {
	a, err := MNISTLike(5, 100, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MNISTLike(5, 100, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Train {
		if a.Train[i].Label != b.Train[i].Label ||
			!tensor.Equal(a.Train[i].Features, b.Train[i].Features, 0) {
			t.Fatalf("example %d differs between identically-seeded datasets", i)
		}
	}
	c, err := MNISTLike(6, 100, 20)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Train {
		if !tensor.Equal(a.Train[i].Features, c.Train[i].Features, 0) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestSynthImageValidation(t *testing.T) {
	bad := []SynthImageConfig{
		{Classes: 1, C: 1, H: 2, W: 2, Train: 10, Test: 10, Margin: 1, NoiseStd: 1},
		{Classes: 2, C: 0, H: 2, W: 2, Train: 10, Test: 10, Margin: 1, NoiseStd: 1},
		{Classes: 2, C: 1, H: 2, W: 2, Train: 0, Test: 10, Margin: 1, NoiseStd: 1},
		{Classes: 2, C: 1, H: 2, W: 2, Train: 10, Test: 10, Margin: 0, NoiseStd: 1},
		{Classes: 2, C: 1, H: 2, W: 2, Train: 10, Test: 10, Margin: 1, NoiseStd: 1, LabelNoise: 1.5},
	}
	for i, cfg := range bad {
		if _, err := GenerateSynthImage(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestGenerateSynthText(t *testing.T) {
	ds, err := AGNewsLike(1, 300, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.IsText() || ds.Vocab != 128 || ds.SeqLen != 12 {
		t.Errorf("metadata: %+v", ds)
	}
	for _, e := range ds.Train {
		if len(e.Tokens) != 12 {
			t.Fatalf("sequence length %d", len(e.Tokens))
		}
		for _, tok := range e.Tokens {
			if tok < 0 || tok >= 128 {
				t.Fatalf("token %d out of vocab", tok)
			}
		}
	}
}

func TestSynthTextValidation(t *testing.T) {
	if _, err := GenerateSynthText(SynthTextConfig{
		Classes: 10, Vocab: 20, SeqLen: 4, TopicWords: 12, Train: 10, Test: 10,
	}); err == nil {
		t.Error("accepted vocab too small for topics")
	}
	if _, err := GenerateSynthText(SynthTextConfig{
		Classes: 2, Vocab: 50, SeqLen: 0, TopicWords: 5, Train: 10, Test: 10,
	}); err == nil {
		t.Error("accepted zero sequence length")
	}
}

func TestFlipLabels(t *testing.T) {
	xs := []Example{{Label: 0}, {Label: 3}, {Label: 9}}
	flipped, err := FlipLabels(xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{9, 6, 0}
	for i, e := range flipped {
		if e.Label != want[i] {
			t.Errorf("flipped[%d] = %d, want %d", i, e.Label, want[i])
		}
	}
	if xs[0].Label != 0 {
		t.Error("FlipLabels mutated its input")
	}
	if _, err := FlipLabels([]Example{{Label: 12}}, 10); err == nil {
		t.Error("accepted out-of-range label")
	}
}

func TestSubsetAndLabels(t *testing.T) {
	xs := []Example{{Label: 0}, {Label: 1}, {Label: 2}}
	sub, err := Subset(xs, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub[0].Label != 2 || sub[1].Label != 0 {
		t.Errorf("Subset labels = %d, %d", sub[0].Label, sub[1].Label)
	}
	if _, err := Subset(xs, []int{5}); err == nil {
		t.Error("accepted out-of-range index")
	}
}

func TestSampler(t *testing.T) {
	pool := make([]Example, 10)
	for i := range pool {
		pool[i].Label = i
	}
	s, err := NewSampler(tensor.NewRNG(1), pool)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 10 {
		t.Errorf("Size = %d", s.Size())
	}
	// One full pass must visit each example exactly once.
	seen := map[int]int{}
	for drawn := 0; drawn < 10; {
		b := s.Batch(3)
		drawn += len(b)
		for _, e := range b {
			seen[e.Label]++
		}
	}
	for l, c := range seen {
		if c != 1 {
			t.Errorf("label %d drawn %d times in one epoch", l, c)
		}
	}
	// Sampler keeps yielding after the pool is exhausted (reshuffles).
	if len(s.Batch(4)) != 4 {
		t.Error("sampler did not reshuffle")
	}
	if s.Batch(0) != nil {
		t.Error("Batch(0) should be nil")
	}
	if _, err := NewSampler(tensor.NewRNG(1), nil); err == nil {
		t.Error("accepted empty pool")
	}
}

func TestPartitionIID(t *testing.T) {
	rng := tensor.NewRNG(1)
	parts, err := PartitionIID(rng, 103, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 10 {
		t.Fatalf("%d parts", len(parts))
	}
	seen := map[int]bool{}
	var total int
	for _, p := range parts {
		total += len(p)
		if len(p) < 10 || len(p) > 11 {
			t.Errorf("unbalanced part of size %d", len(p))
		}
		for _, idx := range p {
			if seen[idx] {
				t.Fatalf("index %d assigned twice", idx)
			}
			seen[idx] = true
		}
	}
	if total != 103 {
		t.Errorf("assigned %d of 103", total)
	}
	if _, err := PartitionIID(rng, 5, 10); err == nil {
		t.Error("accepted fewer examples than clients")
	}
	if _, err := PartitionIID(rng, 10, 0); err == nil {
		t.Error("accepted zero clients")
	}
}

func makeLabelled(n, classes int, seed int64) []Example {
	rng := tensor.NewRNG(seed)
	xs := make([]Example, n)
	for i := range xs {
		xs[i] = Example{Label: rng.Intn(classes), Features: []float64{float64(i)}}
	}
	return xs
}

func TestPartitionNonIIDCoverage(t *testing.T) {
	xs := makeLabelled(400, 10, 3)
	rng := tensor.NewRNG(2)
	parts, err := PartitionNonIID(rng, xs, 10, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	total := 0
	for _, p := range parts {
		total += len(p)
		for _, idx := range p {
			if seen[idx] {
				t.Fatalf("index %d assigned twice", idx)
			}
			seen[idx] = true
		}
	}
	if total != 400 {
		t.Errorf("assigned %d of 400", total)
	}
}

func TestPartitionNonIIDSkew(t *testing.T) {
	xs := makeLabelled(1000, 10, 4)
	rng := tensor.NewRNG(5)

	skewness := func(s float64) float64 {
		parts, err := PartitionNonIID(tensor.NewRNG(7), xs, 10, s, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Average fraction of a client's data in its two most common labels.
		var avg float64
		for _, p := range parts {
			hist := make([]int, 10)
			for _, j := range p {
				hist[xs[j].Label]++
			}
			top1, top2 := 0, 0
			for _, c := range hist {
				if c > top1 {
					top1, top2 = c, top1
				} else if c > top2 {
					top2 = c
				}
			}
			avg += float64(top1+top2) / float64(len(p))
		}
		return avg / float64(len(parts))
	}
	_ = rng
	low, high := skewness(0.8), skewness(0.2)
	if high <= low {
		t.Errorf("s=0.2 should be more skewed than s=0.8: %v vs %v", high, low)
	}
	if high < 0.6 {
		t.Errorf("s=0.2 top-2 label mass = %v, want > 0.6", high)
	}
}

func TestPartitionNonIIDValidation(t *testing.T) {
	xs := makeLabelled(50, 5, 1)
	rng := tensor.NewRNG(1)
	if _, err := PartitionNonIID(rng, xs, 0, 0.5, 2); err == nil {
		t.Error("accepted zero clients")
	}
	if _, err := PartitionNonIID(rng, xs, 5, -0.1, 2); err == nil {
		t.Error("accepted negative s")
	}
	if _, err := PartitionNonIID(rng, xs, 5, 0.5, 0); err == nil {
		t.Error("accepted zero shards per client")
	}
	if _, err := PartitionNonIID(rng, xs, 40, 0.5, 2); err == nil {
		t.Error("accepted too few examples")
	}
}

// Property: every non-IID partition is a permutation of the index set
// (no loss, no duplication) for any valid s.
func TestPartitionNonIIDBijectionQuick(t *testing.T) {
	xs := makeLabelled(200, 6, 9)
	f := func(seed int64, sRaw uint8) bool {
		s := float64(sRaw%101) / 100
		parts, err := PartitionNonIID(tensor.NewRNG(seed), xs, 8, s, 2)
		if err != nil {
			return false
		}
		seen := make([]bool, len(xs))
		total := 0
		for _, p := range parts {
			total += len(p)
			for _, idx := range p {
				if idx < 0 || idx >= len(xs) || seen[idx] {
					return false
				}
				seen[idx] = true
			}
		}
		return total == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLabelNoiseRate(t *testing.T) {
	cfg := SynthImageConfig{
		Name: "t", Classes: 10, C: 1, H: 4, W: 4, Train: 5000, Test: 100,
		Margin: 5, NoiseStd: 0.1, LabelNoise: 0.2, Seed: 3,
	}
	ds, err := GenerateSynthImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With margin >> noise, a nearest-prototype check recovers the clean
	// label; count how many training labels disagree. A 0.2 noise rate
	// re-draws uniformly, so ~18% of labels actually change.
	protos := map[int][]float64{}
	for _, e := range ds.Test { // test labels are clean
		if _, ok := protos[e.Label]; !ok {
			protos[e.Label] = e.Features
		}
	}
	var flipped, totalChecked int
	for _, e := range ds.Train {
		best, bestD := -1, math.Inf(1)
		for l, p := range protos {
			d, _ := tensor.Distance(e.Features, p)
			if d < bestD {
				best, bestD = l, d
			}
		}
		if best == -1 {
			continue
		}
		totalChecked++
		if best != e.Label {
			flipped++
		}
	}
	rate := float64(flipped) / float64(totalChecked)
	if rate < 0.10 || rate > 0.26 {
		t.Errorf("observed label-noise rate %v, want ≈0.18", rate)
	}
}

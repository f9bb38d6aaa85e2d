package nn

import (
	"math"
	"testing"

	"github.com/signguard/signguard/internal/tensor"
)

// batchedTestModel builds a small ImageCNN — conv, pool, three dense
// layers — the architecture the batched engine targets.
func batchedTestModel(t *testing.T) *FeedForward {
	t.Helper()
	m, err := NewImageCNN(tensor.NewRNG(3), 1, 8, 8, 4, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomBatch fills a dense batch and labels from a seeded RNG.
func randomBatch(rows, cols, classes int, seed int64) (*tensor.Matrix, []int) {
	rng := tensor.NewRNG(seed)
	x := tensor.NewMatrix(rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return x, labels
}

// perSegmentReference computes each segment's gradient through the
// per-client path: ZeroGrad + LossAndGrad + GradVector per segment.
func perSegmentReference(t *testing.T, m *FeedForward, x *tensor.Matrix, labels []int, bounds []int) []SegmentGrad {
	t.Helper()
	out := make([]SegmentGrad, len(bounds)-1)
	for s := 0; s+1 < len(bounds); s++ {
		lo, hi := bounds[s], bounds[s+1]
		seg := &tensor.Matrix{Rows: hi - lo, Cols: x.Cols, Data: x.Data[lo*x.Cols : hi*x.Cols]}
		m.ZeroGrad()
		loss, correct, err := m.LossAndGrad(Input{Dense: seg}, labels[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		out[s] = SegmentGrad{Loss: loss, Correct: correct, Grad: m.GradVector()}
	}
	m.ZeroGrad()
	return out
}

// assertSegmentsBitIdentical compares batched output against the
// per-segment reference down to Float64bits.
func assertSegmentsBitIdentical(t *testing.T, want, got []SegmentGrad) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("segment count %d, want %d", len(got), len(want))
	}
	for s := range want {
		if math.Float64bits(want[s].Loss) != math.Float64bits(got[s].Loss) {
			t.Errorf("segment %d loss %v, want %v (bitwise)", s, got[s].Loss, want[s].Loss)
		}
		if want[s].Correct != got[s].Correct {
			t.Errorf("segment %d correct %d, want %d", s, got[s].Correct, want[s].Correct)
		}
		if len(want[s].Grad) != len(got[s].Grad) {
			t.Fatalf("segment %d grad len %d, want %d", s, len(got[s].Grad), len(want[s].Grad))
		}
		for j := range want[s].Grad {
			if math.Float64bits(want[s].Grad[j]) != math.Float64bits(got[s].Grad[j]) {
				t.Fatalf("segment %d grad[%d] = %v, want %v (bitwise)", s, j, got[s].Grad[j], want[s].Grad[j])
			}
		}
	}
}

// TestBatchedLossAndGradBitIdentical: one stacked pass must de-interleave
// the exact per-client gradients, including unequal segment sizes and a
// single-sample segment.
func TestBatchedLossAndGradBitIdentical(t *testing.T) {
	m := batchedTestModel(t)
	cases := map[string][]int{
		"equal":       {0, 4, 8, 12},
		"unequal":     {0, 3, 4, 9, 12},
		"single-row":  {0, 1, 12},
		"one-segment": {0, 12},
	}
	x, labels := randomBatch(12, 64, 5, 7)
	for name, bounds := range cases {
		t.Run(name, func(t *testing.T) {
			want := perSegmentReference(t, m, x, labels, bounds)
			got, err := m.BatchedLossAndGrad(Input{Dense: x}, labels, bounds, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSegmentsBitIdentical(t, want, got)
		})
	}
}

// TestBatchedLossAndGradDirtyDst: a caller-owned destination holding
// anything — NaN, or the previous pass's gradients — must come back
// Float64bits-identical to a nil destination's fresh backing, through a
// model's warm buffers, for both model families; the segments alias dst, and a
// destination of the wrong length is refused.
func TestBatchedLossAndGradDirtyDst(t *testing.T) {
	x, labels := randomBatch(12, 64, 5, 7)
	rng := tensor.NewRNG(5)
	tokens := randTokens(rng, 9, 6, 30)
	tokLabels := make([]int, len(tokens))
	for i := range tokLabels {
		tokLabels[i] = rng.Intn(4)
	}
	cases := []struct {
		name   string
		m      Classifier
		in     Input
		labels []int
		bounds []int
	}{
		{"image", batchedTestModel(t), Input{Dense: x}, labels, []int{0, 3, 4, 9, 12}},
		{"text", NewTextRNN(tensor.NewRNG(6), 30, 5, 7, 4), Input{Tokens: tokens}, tokLabels, []int{0, 2, 7, 9}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.m.BatchedLossAndGrad(c.in, c.labels, c.bounds, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := (len(c.bounds) - 1) * c.m.NumParams()
			dst := make([]float64, n)
			for i := range dst {
				dst[i] = math.NaN()
			}
			for pass := 0; pass < 2; pass++ { // NaN-filled, then stale from pass 0
				got, err := c.m.BatchedLossAndGrad(c.in, c.labels, c.bounds, dst)
				if err != nil {
					t.Fatal(err)
				}
				assertSegmentsBitIdentical(t, want, got)
				for s, g := range got {
					if &g.Grad[0] != &dst[s*c.m.NumParams()] {
						t.Fatalf("pass %d: segment %d gradient does not alias dst", pass, s)
					}
				}
			}
			if _, err := c.m.BatchedLossAndGrad(c.in, c.labels, c.bounds, dst[:n-1]); err == nil {
				t.Error("a destination one value short was accepted")
			}
		})
	}
}

// TestBatchedLossAndGradLeavesGradState: the batched path must not disturb
// the model's own accumulated gradients.
func TestBatchedLossAndGradLeavesGradState(t *testing.T) {
	m := batchedTestModel(t)
	x, labels := randomBatch(6, 64, 5, 9)
	m.ZeroGrad()
	if _, err := m.BatchedLossAndGrad(Input{Dense: x}, labels, []int{0, 3, 6}, nil); err != nil {
		t.Fatal(err)
	}
	for i, g := range m.GradVector() {
		if g != 0 {
			t.Fatalf("grad[%d] = %v after batched pass, want untouched zero", i, g)
		}
	}
}

// TestBatchedLossAndGradRejectsBadInput covers the segmentation and input
// validation.
func TestBatchedLossAndGradRejectsBadInput(t *testing.T) {
	m := batchedTestModel(t)
	x, labels := randomBatch(6, 64, 5, 11)
	bad := map[string][]int{
		"nil":        nil,
		"one-bound":  {0},
		"no-cover":   {0, 4},
		"empty-seg":  {0, 3, 3, 6},
		"descending": {0, 4, 2, 6},
		"offset":     {1, 6},
	}
	for name, bounds := range bad {
		if _, err := m.BatchedLossAndGrad(Input{Dense: x}, labels, bounds, nil); err == nil {
			t.Errorf("%s bounds accepted", name)
		}
	}
	if _, err := m.BatchedLossAndGrad(Input{Tokens: [][]int{{1}}}, []int{0}, []int{0, 1}, nil); err == nil {
		t.Error("token input accepted by dense batched path")
	}
	if _, err := m.BatchedLossAndGrad(Input{Dense: x}, labels[:3], []int{0, 6}, nil); err == nil {
		t.Error("label/row mismatch accepted")
	}
}

// TestSoftmaxCrossEntropySegmentedMatches pins the segmented loss against
// per-segment calls of the scalar version.
func TestSoftmaxCrossEntropySegmentedMatches(t *testing.T) {
	logits, labels := randomBatch(9, 5, 5, 17)
	bounds := []int{0, 2, 3, 9}
	losses, grad, correct, err := softmaxCrossEntropySegmented(logits, labels, bounds)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s+1 < len(bounds); s++ {
		lo, hi := bounds[s], bounds[s+1]
		seg := &tensor.Matrix{Rows: hi - lo, Cols: logits.Cols, Data: logits.Data[lo*logits.Cols : hi*logits.Cols]}
		wantLoss, wantGrad, wantCorrect, err := softmaxCrossEntropy(seg, labels[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(wantLoss) != math.Float64bits(losses[s]) {
			t.Errorf("segment %d loss %v, want %v", s, losses[s], wantLoss)
		}
		if wantCorrect != correct[s] {
			t.Errorf("segment %d correct %d, want %d", s, correct[s], wantCorrect)
		}
		for i := 0; i < wantGrad.Rows; i++ {
			for j, v := range wantGrad.Row(i) {
				if math.Float64bits(v) != math.Float64bits(grad.Row(lo + i)[j]) {
					t.Fatalf("segment %d grad (%d,%d) mismatch", s, i, j)
				}
			}
		}
	}
}

// passLayer is a parameter-free identity layer. In front of a model's
// layers it makes their first one a later layer, whose input gradient the
// backward pass computes.
type passLayer struct{}

func (passLayer) Forward(x *tensor.Matrix) (*tensor.Matrix, error)  { return x, nil }
func (passLayer) Backward(g *tensor.Matrix) (*tensor.Matrix, error) { return g, nil }
func (passLayer) Params() []*Param                                  { return nil }

// firstLayerDX returns the input-gradient buffer of m's first layer, or nil
// when that layer is neither a Conv2D nor a Linear.
func firstLayerDX(m *FeedForward) *tensor.Matrix {
	switch l := m.layers[0].(type) {
	case *Conv2D:
		return &l.dx
	case *Linear:
		return &l.dx
	}
	return nil
}

// TestFirstLayerSkipsInputGradient: a model's first layer — a conv in
// DeepCNN, a Linear in an MLP — computes no input gradient, batched or per
// client, and every gradient is bit-identical to a pass through the same
// layers that does compute it.
func TestFirstLayerSkipsInputGradient(t *testing.T) {
	rng := tensor.NewRNG(21)
	deep, err := NewDeepImageCNN(rng, 3, 8, 8, 4, 6, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := NewMLP(rng, 192, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*FeedForward{"DeepCNN": deep, "MLP": mlp} {
		t.Run(name, func(t *testing.T) {
			withDX := NewFeedForward(append([]Layer{passLayer{}}, m.layers...)...)
			x, labels := randomBatch(9, 192, 5, 3)
			bounds := []int{0, 1, 5, 9}

			got, err := m.BatchedLossAndGrad(Input{Dense: x}, labels, bounds, nil)
			if err != nil {
				t.Fatal(err)
			}
			if dx := firstLayerDX(m); dx == nil || dx.Data != nil {
				t.Error("the first layer grew an input-gradient buffer")
			}
			want, err := withDX.BatchedLossAndGrad(Input{Dense: x}, labels, bounds, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSegmentsBitIdentical(t, want, got)

			m.ZeroGrad()
			if _, _, err := m.LossAndGrad(Input{Dense: x}, labels); err != nil {
				t.Fatal(err)
			}
			skipped := m.GradVector()
			m.ZeroGrad()
			if _, _, err := withDX.LossAndGrad(Input{Dense: x}, labels); err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, "LossAndGrad gradient", skipped, withDX.GradVector())
			m.ZeroGrad()
		})
	}
}

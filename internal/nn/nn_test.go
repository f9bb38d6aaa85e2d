package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/signguard/signguard/internal/tensor"
)

// lossAt evaluates the mean loss of the model at its current parameters
// without keeping gradients.
func lossAt(t *testing.T, m Classifier, in Input, labels []int) float64 {
	t.Helper()
	m.ZeroGrad()
	loss, _, err := m.LossAndGrad(in, labels)
	if err != nil {
		t.Fatalf("LossAndGrad: %v", err)
	}
	return loss
}

// checkNumericalGradient verifies backprop against central finite
// differences on a sample of coordinates.
func checkNumericalGradient(t *testing.T, m Classifier, in Input, labels []int) {
	t.Helper()
	n := m.NumParams()
	checks := 60
	if n < checks {
		checks = n
	}
	checkNumericalGradientAt(t, m, in, labels, tensor.SampleIndices(tensor.NewRNG(42), n, checks))
}

// checkNumericalGradientAt verifies backprop against central finite
// differences at the given flat parameter coordinates.
func checkNumericalGradientAt(t *testing.T, m Classifier, in Input, labels []int, idx []int) {
	t.Helper()
	m.ZeroGrad()
	if _, _, err := m.LossAndGrad(in, labels); err != nil {
		t.Fatalf("LossAndGrad: %v", err)
	}
	analytic := m.GradVector()
	params := m.ParamVector()

	const eps = 1e-5
	var maxRel float64
	for _, i := range idx {
		orig := params[i]
		params[i] = orig + eps
		if err := m.SetParamVector(params); err != nil {
			t.Fatal(err)
		}
		up := lossAt(t, m, in, labels)
		params[i] = orig - eps
		if err := m.SetParamVector(params); err != nil {
			t.Fatal(err)
		}
		down := lossAt(t, m, in, labels)
		params[i] = orig
		numeric := (up - down) / (2 * eps)
		denom := math.Max(1e-6, math.Abs(numeric)+math.Abs(analytic[i]))
		rel := math.Abs(numeric-analytic[i]) / denom
		if rel > maxRel {
			maxRel = rel
		}
		if rel > 1e-4 {
			t.Errorf("coordinate %d: analytic %.8g vs numeric %.8g (rel %.3g)", i, analytic[i], numeric, rel)
		}
	}
	if err := m.SetParamVector(params); err != nil {
		t.Fatal(err)
	}
	t.Logf("max relative gradient error: %.3g over %d coords", maxRel, len(idx))
}

func denseBatch(rng interface{ NormFloat64() float64 }, n, d int) *tensor.Matrix {
	m := tensor.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestLinearGradient(t *testing.T) {
	rng := tensor.NewRNG(1)
	model := NewFeedForward(NewLinear(rng, 5, 4), NewReLU(), NewLinear(rng, 4, 3))
	in := Input{Dense: denseBatch(rng, 6, 5)}
	labels := []int{0, 1, 2, 0, 1, 2}
	checkNumericalGradient(t, model, in, labels)
}

func TestConvGradient(t *testing.T) {
	rng := tensor.NewRNG(3)
	conv, err := NewConv2D(rng, 2, 6, 6, 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMaxPool2D(3, conv.OutH, conv.OutW, 2)
	if err != nil {
		t.Fatal(err)
	}
	model := NewFeedForward(conv, NewReLU(), pool, NewLinear(rng, pool.OutputSize(), 4))
	in := Input{Dense: denseBatch(rng, 4, 2*6*6)}
	labels := []int{0, 3, 1, 2}
	checkNumericalGradient(t, model, in, labels)
}

func TestImageCNNGradient(t *testing.T) {
	rng := tensor.NewRNG(4)
	model, err := NewImageCNN(rng, 1, 8, 8, 4, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Dense: denseBatch(rng, 3, 64)}
	labels := []int{7, 0, 4}
	checkNumericalGradient(t, model, in, labels)
}

// TestDeepImageCNNGradient checks backprop through a conv that is not the
// model's first layer: conv2's input gradient, through pool1 and ReLU, is
// what conv1's filter gradient is made of. Every conv1 coordinate is
// checked, and a sample of the rest.
func TestDeepImageCNNGradient(t *testing.T) {
	rng := tensor.NewRNG(13)
	model, err := NewDeepImageCNN(rng, 2, 8, 8, 3, 4, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Dense: denseBatch(rng, 3, 2*8*8)}
	labels := []int{4, 0, 2}
	conv1 := model.layers[0].(*Conv2D)
	var idx []int
	for i := 0; i < countParams(conv1.Params()); i++ {
		idx = append(idx, i)
	}
	n := model.NumParams()
	idx = append(idx, tensor.SampleIndices(tensor.NewRNG(42), n, 40)...)
	checkNumericalGradientAt(t, model, in, labels, idx)
}

func TestTextRNNGradient(t *testing.T) {
	rng := tensor.NewRNG(5)
	model := NewTextRNN(rng, 20, 6, 8, 4)
	in := Input{Tokens: [][]int{{1, 5, 2, 7}, {0, 19, 3, 3}, {4, 4, 4, 4}}}
	labels := []int{0, 3, 2}
	checkNumericalGradient(t, model, in, labels)
}

// softmaxCrossEntropySegmented is softmaxCrossEntropySegmentedInto into a
// fresh gradient matrix.
func softmaxCrossEntropySegmented(logits *tensor.Matrix, labels, bounds []int) ([]float64, *tensor.Matrix, []int, error) {
	grad := tensor.NewMatrix(logits.Rows, logits.Cols)
	losses, correct, err := softmaxCrossEntropySegmentedInto(grad, logits, labels, bounds)
	return losses, grad, correct, err
}

// softmaxCrossEntropy is the loss of the whole batch as one segment.
func softmaxCrossEntropy(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix, int, error) {
	losses, grad, correct, err := softmaxCrossEntropySegmented(logits, labels, []int{0, logits.Rows})
	if err != nil {
		return 0, nil, 0, err
	}
	return losses[0], grad, correct[0], nil
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := &tensor.Matrix{Rows: 2, Cols: 3, Data: []float64{10, 0, 0, 0, 10, 0}}
	loss, grad, correct, err := softmaxCrossEntropy(logits, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if correct != 2 {
		t.Errorf("correct = %d", correct)
	}
	if loss > 1e-3 {
		t.Errorf("confident correct predictions should have near-zero loss, got %v", loss)
	}
	// Gradient rows sum to zero (softmax minus one-hot property).
	for i := 0; i < grad.Rows; i++ {
		var s float64
		for _, v := range grad.Row(i) {
			s += v
		}
		if math.Abs(s) > 1e-12 {
			t.Errorf("gradient row %d sums to %v", i, s)
		}
	}
	if _, _, _, err := softmaxCrossEntropy(logits, []int{0}); err == nil {
		t.Error("accepted mismatched labels")
	}
	if _, _, _, err := softmaxCrossEntropy(logits, []int{0, 9}); err == nil {
		t.Error("accepted out-of-range label")
	}
}

func TestParamVectorRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(6)
	model, err := NewMLP(rng, 4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	v := model.ParamVector()
	if len(v) != model.NumParams() {
		t.Fatalf("ParamVector length %d != NumParams %d", len(v), model.NumParams())
	}
	want := make([]float64, len(v))
	copy(want, v)
	for i := range v {
		v[i] = float64(i)
	}
	if err := model.SetParamVector(v); err != nil {
		t.Fatal(err)
	}
	got := model.ParamVector()
	if !tensor.Equal(got, v, 0) {
		t.Error("SetParamVector/ParamVector round trip mismatch")
	}
	if err := model.SetParamVector(want[:3]); err == nil {
		t.Error("accepted short parameter vector")
	}
}

func TestZeroGrad(t *testing.T) {
	rng := tensor.NewRNG(7)
	model, err := NewMLP(rng, 3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Dense: denseBatch(rng, 2, 3)}
	if _, _, err := model.LossAndGrad(in, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if tensor.Norm(model.GradVector()) == 0 {
		t.Fatal("gradient should be non-zero after a backward pass")
	}
	model.ZeroGrad()
	if tensor.Norm(model.GradVector()) != 0 {
		t.Error("ZeroGrad left non-zero gradients")
	}
}

func TestGradAccumulation(t *testing.T) {
	rng := tensor.NewRNG(8)
	model, err := NewMLP(rng, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Dense: denseBatch(rng, 2, 3)}
	labels := []int{0, 1}
	model.ZeroGrad()
	if _, _, err := model.LossAndGrad(in, labels); err != nil {
		t.Fatal(err)
	}
	g1 := model.GradVector()
	if _, _, err := model.LossAndGrad(in, labels); err != nil {
		t.Fatal(err)
	}
	g2 := model.GradVector()
	if !tensor.Equal(g2, tensor.Scale(g1, 2), 1e-9) {
		t.Error("gradients should accumulate across backward passes")
	}
}

func TestPredict(t *testing.T) {
	rng := tensor.NewRNG(9)
	model, err := NewMLP(rng, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Dense: denseBatch(rng, 4, 2)}
	preds, err := model.Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 4 {
		t.Fatalf("got %d predictions", len(preds))
	}
	for _, p := range preds {
		if p < 0 || p >= 3 {
			t.Errorf("prediction %d out of range", p)
		}
	}
	if _, err := model.Predict(Input{Tokens: [][]int{{1}}}); err == nil {
		t.Error("FeedForward accepted token input")
	}
}

func TestTextRNNInputValidation(t *testing.T) {
	rng := tensor.NewRNG(10)
	model := NewTextRNN(rng, 10, 4, 4, 3)
	if _, _, err := model.LossAndGrad(Input{Dense: tensor.NewMatrix(1, 4)}, []int{0}); err == nil {
		t.Error("TextRNN accepted dense input")
	}
	if _, _, err := model.LossAndGrad(Input{Tokens: [][]int{{99}}}, []int{0}); err == nil {
		t.Error("accepted out-of-vocab token")
	}
	if _, _, err := model.LossAndGrad(Input{Tokens: [][]int{{}}}, []int{0}); err == nil {
		t.Error("accepted empty sequence")
	}
	if _, _, err := model.LossAndGrad(Input{Tokens: [][]int{{1}}}, []int{9}); err == nil {
		t.Error("accepted out-of-range label")
	}
}

// oracleTextLogits is the per-sample forward pass TextRNN.Predict ran
// before it shared the batched one: a sequence at a time, scalar loops
// throughout. It returns every sequence's class logits.
func oracleTextLogits(m *TextRNN, tokens [][]int) [][]float64 {
	out := make([][]float64, len(tokens))
	h := make([]float64, m.Hidden)
	hPrev := make([]float64, m.Hidden)
	pooled := make([]float64, m.Hidden)
	for s, seq := range tokens {
		clear(hPrev)
		clear(pooled)
		for t, tok := range seq {
			e := m.emb.W[tok*m.Embed : (tok+1)*m.Embed]
			for i := 0; i < m.Hidden; i++ {
				a := m.bh.W[i]
				wx := m.wxh.W[i*m.Embed : (i+1)*m.Embed]
				for j, ev := range e {
					a += wx[j] * ev
				}
				if t > 0 {
					wh := m.whh.W[i*m.Hidden : (i+1)*m.Hidden]
					for j, hv := range hPrev {
						a += wh[j] * hv
					}
				}
				h[i] = math.Tanh(a)
			}
			copy(hPrev, h)
			for i, hv := range h {
				pooled[i] += hv
			}
		}
		invT := 1.0 / float64(len(seq))
		for i := range pooled {
			pooled[i] *= invT
		}
		logits := make([]float64, m.Classes)
		for c := range logits {
			w := m.wout.W[c*m.Hidden : (c+1)*m.Hidden]
			sum := m.bout.W[c]
			for i, pv := range pooled {
				sum += w[i] * pv
			}
			logits[c] = sum
		}
		out[s] = logits
	}
	return out
}

// TestTextRNNForwardMatchesPerSample: the time-major forward pass that
// Predict shares with training reproduces the per-sample scalar pass's
// logits bit for bit — over random parameter draws and ragged sequences of
// length 1–14 at the AG-News model's shape, on fresh and on NaN-poisoned
// buffers — and Predict returns their argmax.
func TestTextRNNForwardMatchesPerSample(t *testing.T) {
	for draw := int64(0); draw < 20; draw++ {
		rng := tensor.NewRNG(100 + draw)
		m := NewTextRNN(rng, 128, 16, 24, 4)
		tokens := make([][]int, 64)
		for i := range tokens {
			tokens[i] = make([]int, 1+rng.Intn(14))
			for j := range tokens[i] {
				tokens[i][j] = rng.Intn(m.Vocab)
			}
		}
		want := oracleTextLogits(m, tokens)
		logits, _, err := m.forward(tokens)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range want {
			bitsEqual(t, fmt.Sprintf("draw %d sequence %d logits", draw, i), logits.Row(i), row)
		}
		poisonScratch(m)
		preds, err := m.Predict(Input{Tokens: tokens})
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range want {
			bitsEqual(t, fmt.Sprintf("draw %d sequence %d poisoned logits", draw, i), m.logits.Row(i), row)
			if preds[i] != Argmax(row) {
				t.Fatalf("draw %d sequence %d: Predict %d, want %d", draw, i, preds[i], Argmax(row))
			}
		}
	}
}

func TestSGDStep(t *testing.T) {
	opt := NewSGD(0.1, 0, 0)
	params := []float64{1, 1}
	if err := opt.Step(params, []float64{1, -1}); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(params, []float64{0.9, 1.1}, 1e-12) {
		t.Errorf("params = %v", params)
	}
	if err := opt.Step(params, []float64{1}); err == nil {
		t.Error("accepted mismatched gradient")
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	opt := NewSGD(1, 0.5, 0)
	params := []float64{0}
	grad := []float64{1}
	// v1=1 → p=-1; v2=1.5 → p=-2.5
	opt.Step(params, grad)
	opt.Step(params, grad)
	if math.Abs(params[0]+2.5) > 1e-12 {
		t.Errorf("params after 2 momentum steps = %v, want -2.5", params[0])
	}
	opt2 := NewSGD(1, 0.5, 0)
	p2 := []float64{0}
	opt2.Step(p2, grad)
	if p2[0] != -1 {
		t.Errorf("fresh optimizer first step = %v", p2[0])
	}
}

func TestSGDWeightDecay(t *testing.T) {
	opt := NewSGD(1, 0, 0.1)
	params := []float64{10}
	opt.Step(params, []float64{0})
	// g = 0 + 0.1*10 = 1 → p = 10 - 1 = 9.
	if math.Abs(params[0]-9) > 1e-12 {
		t.Errorf("weight decay step = %v, want 9", params[0])
	}
}

func TestModelZooShapes(t *testing.T) {
	rng := tensor.NewRNG(11)
	if _, err := NewMLP(rng, 4); err == nil {
		t.Error("NewMLP accepted a single size")
	}
	deep, err := NewDeepImageCNN(rng, 3, 8, 8, 4, 8, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	if deep.NumParams() == 0 {
		t.Error("deep CNN has no parameters")
	}
	in := Input{Dense: denseBatch(rng, 2, 192)}
	if _, _, err := deep.LossAndGrad(in, []int{0, 9}); err != nil {
		t.Errorf("deep CNN forward/backward: %v", err)
	}
	if _, err := NewConv2D(rng, 1, 2, 2, 1, 5, 0); err == nil {
		t.Error("Conv2D accepted kernel larger than padded input")
	}
	if _, err := NewMaxPool2D(1, 5, 5, 2); err == nil {
		t.Error("MaxPool2D accepted non-dividing size")
	}
}

func TestLogisticTrainsOnSeparableData(t *testing.T) {
	rng := tensor.NewRNG(12)
	model := NewFeedForward(NewLinear(rng, 2, 2))
	opt := NewSGD(0.5, 0.9, 0)
	// Two linearly separable blobs.
	x := tensor.NewMatrix(40, 2)
	labels := make([]int, 40)
	for i := 0; i < 40; i++ {
		cls := i % 2
		offset := -2.0
		if cls == 1 {
			offset = 2.0
		}
		x.Data[2*i] = offset + 0.3*rng.NormFloat64()
		x.Data[2*i+1] = offset + 0.3*rng.NormFloat64()
		labels[i] = cls
	}
	in := Input{Dense: x}
	params := model.ParamVector()
	for step := 0; step < 100; step++ {
		if err := model.SetParamVector(params); err != nil {
			t.Fatal(err)
		}
		model.ZeroGrad()
		if _, _, err := model.LossAndGrad(in, labels); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(params, model.GradVector()); err != nil {
			t.Fatal(err)
		}
	}
	if err := model.SetParamVector(params); err != nil {
		t.Fatal(err)
	}
	preds, err := model.Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	if correct < 38 {
		t.Errorf("logistic regression only classified %d/40 separable points", correct)
	}
}

// Package nn is a small, dependency-free neural-network library built for
// the SignGuard reproduction. The paper trains CNNs on image data and a
// recurrent text classifier with SGD + momentum; Go has no mature deep
// learning stack, so this package provides the pieces those experiments
// need: dense, convolutional, pooling and recurrent layers with exact
// backpropagation (verified against numerical gradients in the tests),
// softmax cross-entropy loss, and flat parameter/gradient vector views —
// the representation the attacks and robust aggregation rules operate on.
//
// Every model is a Classifier, and every Classifier trains batched: one
// forward/backward pass over many clients' stacked minibatches returns each
// client's gradient (BatchedLossAndGrad, batched.go), bit for bit the
// gradient a standalone LossAndGrad over that client's rows accumulates.
//
// Every layer and model owns the scratch of its own pass (scratch.go), and
// two rules follow. A model is used by one goroutine at a time, which each
// layer's saved forward input already requires. A matrix a pass returns —
// activations, input gradients — is the layer's own buffer, valid until
// the next pass through the same layer.
package nn

import (
	"errors"
	"fmt"

	"github.com/signguard/signguard/internal/tensor"
)

// ErrShape is returned when an input does not match a layer's expectations.
var ErrShape = errors.New("nn: shape mismatch")

// Param is one named tensor of trainable weights together with its
// accumulated gradient. Layers expose their parameters through this type so
// models can be flattened into the single gradient vector exchanged with
// the parameter server.
type Param struct {
	Name string
	W    []float64
	Grad []float64
}

// newParam allocates a parameter of size n.
func newParam(name string, n int) *Param {
	return &Param{Name: name, W: make([]float64, n), Grad: make([]float64, n)}
}

// Layer is a differentiable transformation over a batch matrix
// (rows = samples). Forward must be called before Backward within a step.
// Backward receives dLoss/dOutput and returns dLoss/dInput while
// accumulating parameter gradients.
type Layer interface {
	Forward(x *tensor.Matrix) (*tensor.Matrix, error)
	Backward(grad *tensor.Matrix) (*tensor.Matrix, error)
	Params() []*Param
}

// Input is a batch of examples for a Classifier. Exactly one of Dense or
// Tokens is set, depending on the model family.
type Input struct {
	// Dense holds one flattened feature row per sample (image models).
	Dense *tensor.Matrix
	// Tokens holds one token-id sequence per sample (text models).
	Tokens [][]int
}

// Classifier is the model abstraction the federated-learning engine trains:
// any multi-class model exposing flat parameter and gradient vectors and
// per-client gradients from one stacked batch (batched.go). Both model
// families implement it: FeedForward (the image CNNs and MLPs) and TextRNN.
type Classifier interface {
	// NumParams returns the total number of trainable scalars.
	NumParams() int
	// ParamVector returns a copy of all parameters as one flat vector.
	ParamVector() []float64
	// SetParamVector overwrites all parameters from a flat vector.
	SetParamVector(v []float64) error
	// GradVector returns a copy of all accumulated gradients, flattened.
	GradVector() []float64
	// ZeroGrad clears the accumulated gradients.
	ZeroGrad()
	// LossAndGrad runs a forward and backward pass over the batch,
	// accumulating gradients. It returns the mean loss and the number of
	// correctly classified samples.
	LossAndGrad(in Input, labels []int) (loss float64, correct int, err error)
	// BatchedLossAndGrad computes per-client gradients from one stacked
	// batch. bounds holds len(segments)+1 ascending row offsets (bounds[0]
	// = 0, bounds[len-1] = batch rows); segment s spans rows [bounds[s],
	// bounds[s+1]) and every segment must be non-empty. The result is
	// byte-identical to ZeroGrad, LossAndGrad and GradVector per segment,
	// and does not touch the model's own accumulated gradients.
	//
	// The per-segment gradients land in dst: the caller's backing of
	// exactly segments × NumParams() values, segment s at
	// dst[s*NumParams():], cleared by the pass before it accumulates, so
	// dst may hold anything on entry. The returned Grad slices alias dst
	// and are valid until the caller reuses it. A nil dst allocates a fresh
	// backing — the same bits either way.
	BatchedLossAndGrad(in Input, labels []int, bounds []int, dst []float64) ([]SegmentGrad, error)
	// Predict returns the argmax class for each sample.
	Predict(in Input) ([]int, error)
}

// flattenParams copies every parameter tensor into one vector.
func flattenParams(params []*Param) []float64 {
	var total int
	for _, p := range params {
		total += len(p.W)
	}
	out := make([]float64, 0, total)
	for _, p := range params {
		out = append(out, p.W...)
	}
	return out
}

// flattenGrads copies every gradient tensor into one vector.
func flattenGrads(params []*Param) []float64 {
	var total int
	for _, p := range params {
		total += len(p.Grad)
	}
	out := make([]float64, 0, total)
	for _, p := range params {
		out = append(out, p.Grad...)
	}
	return out
}

// unflattenInto writes the flat vector v back into the parameter tensors.
func unflattenInto(params []*Param, v []float64) error {
	var total int
	for _, p := range params {
		total += len(p.W)
	}
	if len(v) != total {
		return fmt.Errorf("%w: SetParamVector got %d values, model has %d", ErrShape, len(v), total)
	}
	off := 0
	for _, p := range params {
		copy(p.W, v[off:off+len(p.W)])
		off += len(p.W)
	}
	return nil
}

// paramGrads returns the gradient tensors of params, in order.
func paramGrads(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for k, p := range params {
		out[k] = p.Grad
	}
	return out
}

// zeroGrads clears every gradient tensor.
func zeroGrads(params []*Param) {
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// countParams sums the parameter tensor sizes.
func countParams(params []*Param) int {
	var total int
	for _, p := range params {
		total += len(p.W)
	}
	return total
}

// Argmax returns the index of the largest value in row.
func Argmax(row []float64) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

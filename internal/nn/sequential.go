package nn

import (
	"errors"
	"fmt"

	"github.com/signguard/signguard/internal/tensor"
)

// FeedForward is a sequential stack of layers with a softmax cross-entropy
// head. It implements Classifier over dense inputs and covers the paper's
// CNN and MLP image models.
type FeedForward struct {
	layers []Layer
	params []*Param
}

var _ Classifier = (*FeedForward)(nil)

// NewFeedForward assembles a sequential classifier from the given layers.
func NewFeedForward(layers ...Layer) *FeedForward {
	ff := &FeedForward{layers: layers}
	for _, l := range layers {
		ff.params = append(ff.params, l.Params()...)
	}
	return ff
}

// NumParams returns the total number of trainable scalars.
func (ff *FeedForward) NumParams() int { return countParams(ff.params) }

// ParamVector returns a flat copy of all parameters.
func (ff *FeedForward) ParamVector() []float64 { return flattenParams(ff.params) }

// SetParamVector overwrites all parameters from a flat vector.
func (ff *FeedForward) SetParamVector(v []float64) error { return unflattenInto(ff.params, v) }

// GradVector returns a flat copy of all accumulated gradients.
func (ff *FeedForward) GradVector() []float64 { return flattenGrads(ff.params) }

// ZeroGrad clears the accumulated gradients.
func (ff *FeedForward) ZeroGrad() { zeroGrads(ff.params) }

// forward runs the stack on a dense batch.
func (ff *FeedForward) forward(x *tensor.Matrix) (*tensor.Matrix, error) {
	return ff.forwardWs(nil, x)
}

// forwardWs runs the stack with layer scratch buffers checked out of the
// workspace (each layer's index namespaces its arena keys).
func (ff *FeedForward) forwardWs(ws *Workspace, x *tensor.Matrix) (*tensor.Matrix, error) {
	var err error
	for i, l := range ff.layers {
		if al, ok := l.(arenaLayer); ok {
			x, err = al.forwardWs(ws, i, x)
		} else {
			x, err = l.Forward(x)
		}
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return x, nil
}

// LossAndGrad runs forward + backward over the batch, accumulating
// gradients into the layer parameters.
func (ff *FeedForward) LossAndGrad(in Input, labels []int) (float64, int, error) {
	if in.Dense == nil {
		return 0, 0, errors.New("nn: FeedForward requires dense input")
	}
	logits, err := ff.forward(in.Dense)
	if err != nil {
		return 0, 0, err
	}
	loss, grad, correct, err := SoftmaxCrossEntropy(logits, labels)
	if err != nil {
		return 0, 0, err
	}
	for i := len(ff.layers) - 1; i >= 0; i-- {
		l := ff.layers[i]
		if sl, ok := l.(segmentedLayer); ok && i == 0 {
			// Nothing reads the first layer's input gradient: one segment
			// accumulating into the layer's own Grad tensors, without dX.
			_, err = sl.backwardSegmented(nil, i, grad, []int{0, grad.Rows}, [][][]float64{paramGrads(l.Params())}, false)
		} else {
			grad, err = l.Backward(grad)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("layer %d backward: %w", i, err)
		}
	}
	return loss, correct, nil
}

// Predict returns the argmax class per sample.
func (ff *FeedForward) Predict(in Input) ([]int, error) {
	if in.Dense == nil {
		return nil, errors.New("nn: FeedForward requires dense input")
	}
	logits, err := ff.forward(in.Dense)
	if err != nil {
		return nil, err
	}
	out := make([]int, logits.Rows)
	for i := range out {
		out[i] = Argmax(logits.Row(i))
	}
	return out, nil
}

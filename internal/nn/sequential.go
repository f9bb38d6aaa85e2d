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
	layers      []Layer
	layerParams [][]*Param // layerParams[i] is layers[i].Params()
	params      []*Param

	// lossGrad is the last pass's softmax cross-entropy gradient; scaffold
	// is BatchedLossAndGrad's [layer][segment][param] gradient-view
	// structure, rebuilt only where its shape changes (segGradViews).
	lossGrad tensor.Matrix
	scaffold [][][][]float64
}

var _ Classifier = (*FeedForward)(nil)

// NewFeedForward assembles a sequential classifier from the given layers.
func NewFeedForward(layers ...Layer) *FeedForward {
	ff := &FeedForward{layers: layers, scaffold: make([][][][]float64, len(layers))}
	for _, l := range layers {
		p := l.Params()
		ff.layerParams = append(ff.layerParams, p)
		ff.params = append(ff.params, p...)
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
	var err error
	for i, l := range ff.layers {
		if x, err = l.Forward(x); err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return x, nil
}

// lossAndGrad runs forward, the loss and backward over a dense batch
// segmented by bounds, returning each segment's mean loss and correct
// count. grads[i] holds layer i's per-segment parameter gradient views
// (a segmentedLayer's); a nil grads[i] sends the layer through its own
// Backward, which accumulates into its Grad tensors. A segmented first
// layer skips its input gradient, which has no reader.
func (ff *FeedForward) lossAndGrad(x *tensor.Matrix, labels, bounds []int, grads [][][][]float64) ([]float64, []int, error) {
	logits, err := ff.forward(x)
	if err != nil {
		return nil, nil, err
	}
	grad := reshape(&ff.lossGrad, logits.Rows, logits.Cols)
	losses, correct, err := softmaxCrossEntropySegmentedInto(grad, logits, labels, bounds)
	if err != nil {
		return nil, nil, err
	}
	for i := len(ff.layers) - 1; i >= 0; i-- {
		l := ff.layers[i]
		if grads[i] != nil {
			grad, err = l.(segmentedLayer).backwardSegmented(grad, bounds, grads[i], i > 0)
		} else {
			grad, err = l.Backward(grad)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("layer %d backward: %w", i, err)
		}
	}
	return losses, correct, nil
}

// LossAndGrad runs forward + backward over the batch, accumulating
// gradients into the layer parameters.
func (ff *FeedForward) LossAndGrad(in Input, labels []int) (float64, int, error) {
	if in.Dense == nil {
		return 0, 0, errors.New("nn: FeedForward requires dense input")
	}
	grads := make([][][][]float64, len(ff.layers))
	for i, l := range ff.layers[:min(1, len(ff.layers))] {
		if _, ok := l.(segmentedLayer); ok {
			// One segment accumulating into the first layer's own Grad
			// tensors, without the dX that Backward would compute.
			grads[i] = [][][]float64{paramGrads(ff.layerParams[i])}
		}
	}
	losses, correct, err := ff.lossAndGrad(in.Dense, labels, []int{0, in.Dense.Rows}, grads)
	if err != nil {
		return 0, 0, err
	}
	return losses[0], correct[0], nil
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

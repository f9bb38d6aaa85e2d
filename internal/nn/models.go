package nn

import (
	"fmt"
	"math/rand"
)

// This file is the model zoo: constructors for the architectures used by
// the reproduction experiments. The paper trains a 3-conv/2-FC CNN on
// MNIST and Fashion-MNIST, ResNet-18 on CIFAR-10 and a bi-LSTM TextRNN on
// AG-News; here each is replaced by a reduced-scale analog with the same
// family of layers (convolutions + pooling + dense for images, an
// embedding + recurrence + dense head for text) sized so that pure-Go
// training of the full attack/defense sweeps stays tractable.

// NewImageCNN builds a small convolutional classifier for c×h×w inputs:
// conv(3x3, pad 1) → ReLU → maxpool(2) → FC → ReLU → FC → ReLU → FC logits.
// The two hidden dense layers matter for the reproduction: deeper stacks
// propagate the parameter bias injected by model-poisoning attacks
// multiplicatively, which is what makes the paper's attacks destructive.
func NewImageCNN(rng *rand.Rand, c, h, w, filters, hidden, classes int) (*FeedForward, error) {
	conv, err := NewConv2D(rng, c, h, w, filters, 3, 1)
	if err != nil {
		return nil, fmt.Errorf("nn: building image CNN: %w", err)
	}
	pool, err := NewMaxPool2D(filters, conv.OutH, conv.OutW, 2)
	if err != nil {
		return nil, fmt.Errorf("nn: building image CNN: %w", err)
	}
	return NewFeedForward(
		conv,
		NewReLU(),
		pool,
		NewLinear(rng, pool.OutputSize(), hidden),
		NewReLU(),
		NewLinear(rng, hidden, hidden),
		NewReLU(),
		NewLinear(rng, hidden, classes),
	), nil
}

// NewDeepImageCNN builds a two-stage convolutional classifier:
// [conv → ReLU → pool] ×2 → FC → ReLU → FC logits. This is the CIFAR-10
// analog (the paper uses ResNet-18 there).
func NewDeepImageCNN(rng *rand.Rand, c, h, w, f1, f2, hidden, classes int) (*FeedForward, error) {
	conv1, err := NewConv2D(rng, c, h, w, f1, 3, 1)
	if err != nil {
		return nil, fmt.Errorf("nn: building deep image CNN: %w", err)
	}
	pool1, err := NewMaxPool2D(f1, conv1.OutH, conv1.OutW, 2)
	if err != nil {
		return nil, fmt.Errorf("nn: building deep image CNN: %w", err)
	}
	conv2, err := NewConv2D(rng, f1, pool1.OutH, pool1.OutW, f2, 3, 1)
	if err != nil {
		return nil, fmt.Errorf("nn: building deep image CNN: %w", err)
	}
	pool2, err := NewMaxPool2D(f2, conv2.OutH, conv2.OutW, 2)
	if err != nil {
		return nil, fmt.Errorf("nn: building deep image CNN: %w", err)
	}
	return NewFeedForward(
		conv1,
		NewReLU(),
		pool1,
		conv2,
		NewReLU(),
		pool2,
		NewLinear(rng, pool2.OutputSize(), hidden),
		NewReLU(),
		NewLinear(rng, hidden, hidden),
		NewReLU(),
		NewLinear(rng, hidden, classes),
	), nil
}

// NewMLP builds a multi-layer perceptron with ReLU activations between the
// given layer sizes; sizes must contain at least the input and output
// widths.
func NewMLP(rng *rand.Rand, sizes ...int) (*FeedForward, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("%w: NewMLP needs at least [in, out] sizes, got %v", ErrShape, sizes)
	}
	var layers []Layer
	for i := 0; i+1 < len(sizes); i++ {
		layers = append(layers, NewLinear(rng, sizes[i], sizes[i+1]))
		if i+2 < len(sizes) {
			layers = append(layers, NewReLU())
		}
	}
	return NewFeedForward(layers...), nil
}

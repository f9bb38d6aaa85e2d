package nn

import (
	"fmt"

	"github.com/signguard/signguard/internal/tensor"
)

// SGD is a stochastic gradient descent optimizer over flat parameter
// vectors, with classical momentum and decoupled L2 weight decay — the
// configuration used by the paper (momentum 0.9, weight decay 5e-4). It is
// applied at the server on the robustly-aggregated gradient, which in the
// paper's synchronous full-participation setting is equivalent to each
// client applying it locally to the same broadcast gradient.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity []float64
}

// NewSGD builds an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Step updates params in place given the gradient: it folds weight decay
// into the gradient, advances the momentum buffer and applies the update.
func (o *SGD) Step(params, grad []float64) error {
	if len(params) != len(grad) {
		return fmt.Errorf("%w: SGD.Step %d params vs %d grads", tensor.ErrDimensionMismatch, len(params), len(grad))
	}
	if o.velocity == nil {
		o.velocity = make([]float64, len(params))
	} else if len(o.velocity) != len(params) {
		return fmt.Errorf("%w: SGD.Step velocity has %d entries, want %d", tensor.ErrDimensionMismatch, len(o.velocity), len(params))
	}
	for i := range params {
		g := grad[i] + o.WeightDecay*params[i]
		o.velocity[i] = o.Momentum*o.velocity[i] + g
		params[i] -= o.LR * o.velocity[i]
	}
	return nil
}

package nn

import (
	"fmt"
	"math"

	"github.com/signguard/signguard/internal/tensor"
)

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	lastInput *tensor.Matrix
	out, dx   tensor.Matrix
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies the rectifier. Every element is written — a
// non-positive input as +0, the value a fresh zeroed matrix holds — so a
// stale output buffer produces byte-identical output.
func (r *ReLU) Forward(x *tensor.Matrix) (*tensor.Matrix, error) {
	r.lastInput = x
	out := reshape(&r.out, x.Rows, x.Cols)
	dst := out.Data[:len(x.Data)]
	for i, v := range x.Data {
		b := math.Float64bits(v)
		dst[i] = math.Float64frombits(b & positiveMask(b))
	}
	return out, nil
}

// positiveMask returns all ones when the float64 with bits b is above zero
// (+denormal through +Inf) and zero otherwise (±0, negatives, NaN of either
// sign). That is b−1 < 0x7FF0000000000000 unsigned, computed without a
// branch: the sign bit of ^t & (t − 0x7FF0000000000000) is set exactly when
// t = b−1 has a clear sign bit (so the subtraction cannot wrap) and lies
// below +Inf's bits. ReLU selects through it because activation signs are
// close to a coin flip, which a branch mispredicts and a mask does not.
func positiveMask(b uint64) uint64 {
	t := b - 1
	return uint64(int64(^t&(t-0x7FF0000000000000)) >> 63)
}

// Backward gates the incoming gradient by the activation mask. dX is fully
// overwritten, like the output: the gradient's bits pass where the input
// was above zero, +0 elsewhere.
func (r *ReLU) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	if r.lastInput == nil {
		return nil, fmt.Errorf("nn: ReLU.Backward before Forward")
	}
	if grad.Rows != r.lastInput.Rows || grad.Cols != r.lastInput.Cols {
		return nil, fmt.Errorf("%w: ReLU.Backward got (%d,%d), want (%d,%d)",
			ErrShape, grad.Rows, grad.Cols, r.lastInput.Rows, r.lastInput.Cols)
	}
	dx := reshape(&r.dx, grad.Rows, grad.Cols)
	g, dst := grad.Data, dx.Data[:len(grad.Data)]
	for i, v := range r.lastInput.Data[:len(g)] {
		dst[i] = math.Float64frombits(math.Float64bits(g[i]) & positiveMask(math.Float64bits(v)))
	}
	return dx, nil
}

// Params returns nil: activations are parameter-free.
func (r *ReLU) Params() []*Param { return nil }

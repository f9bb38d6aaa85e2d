package nn

import (
	"fmt"

	"github.com/signguard/signguard/internal/tensor"
)

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	lastInput *tensor.Matrix
}

var _ Layer = (*ReLU)(nil)
var _ arenaLayer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies the rectifier.
func (r *ReLU) Forward(x *tensor.Matrix) (*tensor.Matrix, error) {
	return r.forwardWs(nil, 0, x)
}

// forwardWs is Forward with an optional workspace buffer. The else branch
// writes an explicit +0.0 — the value a fresh zeroed matrix holds — so a
// stale arena buffer produces byte-identical output.
func (r *ReLU) forwardWs(ws *Workspace, id int, x *tensor.Matrix) (*tensor.Matrix, error) {
	r.lastInput = x
	out := ws.matrix(id, wsFwd, x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	return out, nil
}

// Backward gates the incoming gradient by the activation mask.
func (r *ReLU) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	return r.backwardWs(nil, 0, grad)
}

// backwardWs is Backward with an optional workspace buffer (fully
// overwritten, like forwardWs).
func (r *ReLU) backwardWs(ws *Workspace, id int, grad *tensor.Matrix) (*tensor.Matrix, error) {
	if r.lastInput == nil {
		return nil, fmt.Errorf("nn: ReLU.Backward before Forward")
	}
	if grad.Rows != r.lastInput.Rows || grad.Cols != r.lastInput.Cols {
		return nil, fmt.Errorf("%w: ReLU.Backward got (%d,%d), want (%d,%d)",
			ErrShape, grad.Rows, grad.Cols, r.lastInput.Rows, r.lastInput.Cols)
	}
	dx := ws.matrix(id, wsDX, grad.Rows, grad.Cols)
	for i, v := range r.lastInput.Data {
		if v > 0 {
			dx.Data[i] = grad.Data[i]
		} else {
			dx.Data[i] = 0
		}
	}
	return dx, nil
}

// Params returns nil: activations are parameter-free.
func (r *ReLU) Params() []*Param { return nil }

package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/signguard/signguard/internal/tensor"
)

// Linear is a fully-connected layer: y = xWᵀ + b, with x an (N, In) batch,
// W an (Out, In) weight matrix and b a length-Out bias.
type Linear struct {
	In, Out int
	weight  *Param // Out*In, row-major (out, in)
	bias    *Param // Out

	lastInput *tensor.Matrix
	out, dx   tensor.Matrix
}

var _ Layer = (*Linear)(nil)
var _ segmentedLayer = (*Linear)(nil)

// NewLinear builds a Linear layer with He-uniform initialization, which
// pairs well with the ReLU activations used throughout the model zoo.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	l := &Linear{
		In:     in,
		Out:    out,
		weight: newParam(fmt.Sprintf("linear%dx%d.weight", out, in), out*in),
		bias:   newParam(fmt.Sprintf("linear%dx%d.bias", out, in), out),
	}
	bound := math.Sqrt(6.0 / float64(in))
	for i := range l.weight.W {
		l.weight.W[i] = (2*rng.Float64() - 1) * bound
	}
	return l
}

// weightMatrix returns the (Out, In) matrix view over the flat weights —
// no copy, shared backing array.
func (l *Linear) weightMatrix() *tensor.Matrix {
	return &tensor.Matrix{Rows: l.Out, Cols: l.In, Data: l.weight.W}
}

// Forward computes the affine transform for a batch: the output starts at
// the bias and accumulates xWᵀ through the exact tensor kernel —
// byte-identical to a sequential per-row dot product. Seeding every row
// from the bias fully overwrites a stale output buffer.
func (l *Linear) Forward(x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols != l.In {
		return nil, fmt.Errorf("%w: Linear expects %d inputs, got %d", ErrShape, l.In, x.Cols)
	}
	l.lastInput = x
	out := reshape(&l.out, x.Rows, l.Out)
	for i := 0; i < x.Rows; i++ {
		copy(out.Row(i), l.bias.W)
	}
	if err := tensor.MulABTInto(out, x, l.weightMatrix()); err != nil {
		return nil, err
	}
	return out, nil
}

// accumBias folds grad rows [r0,r1) into the bias gradient buffer: rows
// ascending, skipping zero terms — the association (and negative-zero
// behavior) of the original fused backward loop.
func accumBias(grad *tensor.Matrix, bg []float64, r0, r1 int) {
	for i := r0; i < r1; i++ {
		for o, g := range grad.Row(i) {
			if g == 0 {
				continue
			}
			bg[o] += g
		}
	}
}

// Backward accumulates dW and db and returns dX.
func (l *Linear) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	return l.backward(grad, func(int) (w, b []float64) { return l.weight.Grad, l.bias.Grad }, nil, true)
}

// backwardSegmented implements segmentedLayer: parameter gradients land in
// per-segment buffers instead of the shared Grad tensors, accumulated over
// each segment's rows in the same ascending order the sequential
// per-segment backward would use — so segment s's buffers are
// byte-identical to a standalone Backward over rows [bounds[s],
// bounds[s+1]).
func (l *Linear) backwardSegmented(grad *tensor.Matrix, bounds []int, segGrads [][][]float64, needDX bool) (*tensor.Matrix, error) {
	return l.backward(grad, func(s int) (w, b []float64) { return segGrads[s][0], segGrads[s][1] }, bounds, needDX)
}

// backward is the shared dW/db/dX computation. sink maps a segment index
// to the weight and bias gradient buffers; bounds is nil for the unsegmented
// path (one segment spanning every row). Without needDX the input gradient
// is not computed and backward returns a nil matrix.
func (l *Linear) backward(grad *tensor.Matrix, sink func(s int) (w, b []float64), bounds []int, needDX bool) (*tensor.Matrix, error) {
	if l.lastInput == nil {
		return nil, fmt.Errorf("nn: Linear.Backward before Forward")
	}
	if grad.Cols != l.Out || grad.Rows != l.lastInput.Rows {
		return nil, fmt.Errorf("%w: Linear.Backward got (%d,%d), want (%d,%d)",
			ErrShape, grad.Rows, grad.Cols, l.lastInput.Rows, l.Out)
	}
	x := l.lastInput
	if bounds == nil {
		bounds = []int{0, x.Rows}
	}
	for s := 0; s+1 < len(bounds); s++ {
		wg, bg := sink(s)
		accumBias(grad, bg, bounds[s], bounds[s+1])
		wm := &tensor.Matrix{Rows: l.Out, Cols: l.In, Data: wg}
		if err := tensor.MulATBRangeInto(wm, grad, x, bounds[s], bounds[s+1]); err != nil {
			return nil, err
		}
	}
	if !needDX {
		return nil, nil
	}
	// dX is an accumulation target (MatMulInto adds into it), so the
	// reused buffer must be explicitly zeroed.
	dx := reshapeZeroed(&l.dx, x.Rows, l.In)
	if err := tensor.MatMulInto(dx, grad, l.weightMatrix()); err != nil {
		return nil, err
	}
	return dx, nil
}

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param { return []*Param{l.weight, l.bias} }

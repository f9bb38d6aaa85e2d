package nn

// The batched local-compute path: several clients' minibatches, all taken
// at the same parameter vector, are stacked along the batch dimension and
// trained in ONE forward/backward pass per layer; the per-client gradients
// are then de-interleaved from the row segments. Correctness rests on two
// structural facts of this library:
//
//   - Every layer's forward pass and input gradient are row-independent:
//     sample i's activations and dX row depend only on row i. Stacking
//     rows therefore reproduces each client's activations bit for bit.
//   - Parameter gradients are per-row sums. Accumulating a contiguous row
//     segment's terms in ascending row order — which segmentedLayer
//     implementations guarantee — is the exact float addition sequence the
//     standalone per-client backward performs.
//
// Together these make BatchedLossAndGrad byte-identical (Float64bits) to
// looping LossAndGrad over the segments, for any segmentation.
//
// Every layer reuses the buffers it owns (scratch.go), so a steady-state
// tile allocates no activation, im2col or delta matrix, and the pass writes
// the per-client gradient vectors into the caller's destination (the
// round's gradient arena in internal/fl), so a steady-state tile allocates
// only its small per-segment result headers.

import (
	"errors"
	"fmt"

	"github.com/signguard/signguard/internal/tensor"
)

// SegmentGrad is one row segment's (client's) share of a batched
// forward/backward pass.
type SegmentGrad struct {
	// Loss is the segment's mean cross-entropy loss.
	Loss float64
	// Correct counts the segment's correct argmax predictions.
	Correct int
	// Grad is the segment's flat parameter gradient, laid out exactly like
	// GradVector.
	Grad []float64
}

// segmentBacking returns the flat backing of segs per-segment gradients of
// total values each: dst cleared to the +0.0 a fresh vector starts from
// (the segmented kernels accumulate into it), or a fresh vector when dst is
// nil.
func segmentBacking(dst []float64, segs, total int) ([]float64, error) {
	n := segs * total
	if dst == nil {
		return make([]float64, n), nil
	}
	if len(dst) != n {
		return nil, fmt.Errorf("%w: gradient destination holds %d values, want %d segments × %d",
			ErrShape, len(dst), segs, total)
	}
	clear(dst)
	return dst, nil
}

// segmentedLayer is implemented by parameter-carrying layers that can
// segment their parameter gradients by row range in a single backward
// pass: segGrads[s][k] receives the gradient of Params()[k] accumulated
// over rows [bounds[s], bounds[s+1]) alone, byte-identical to a standalone
// Backward over that segment. needDX false skips the input gradient (the
// returned matrix is nil) without moving a parameter-gradient bit: a
// model's first layer has no reader for it.
type segmentedLayer interface {
	Layer
	backwardSegmented(grad *tensor.Matrix, bounds []int, segGrads [][][]float64, needDX bool) (*tensor.Matrix, error)
}

// validateBounds checks a segmentation against a batch of the given row
// count: ascending offsets from 0 to rows with no empty segment.
func validateBounds(bounds []int, rows int) error {
	if len(bounds) < 2 {
		return fmt.Errorf("%w: segmentation needs >= 2 bounds, got %d", ErrShape, len(bounds))
	}
	if bounds[0] != 0 || bounds[len(bounds)-1] != rows {
		return fmt.Errorf("%w: segmentation [%d..%d] does not cover %d rows",
			ErrShape, bounds[0], bounds[len(bounds)-1], rows)
	}
	for s := 0; s+1 < len(bounds); s++ {
		if bounds[s] >= bounds[s+1] {
			return fmt.Errorf("%w: empty or descending segment %d: [%d,%d)", ErrShape, s, bounds[s], bounds[s+1])
		}
	}
	return nil
}

// BatchedLossAndGrad implements Classifier: one forward and one
// backward pass per layer over the stacked batch, de-interleaving
// per-segment losses, prediction counts and flat parameter gradients.
func (ff *FeedForward) BatchedLossAndGrad(in Input, labels []int, bounds []int, dst []float64) ([]SegmentGrad, error) {
	if in.Dense == nil {
		return nil, errors.New("nn: FeedForward requires dense input")
	}
	if err := validateBounds(bounds, in.Dense.Rows); err != nil {
		return nil, err
	}

	// One flat gradient vector per segment, in GradVector layout; each
	// layer's params get per-segment sub-slice views at their flat offsets.
	// Parameter-free layers have nothing to segment: their input gradient
	// is row-independent already.
	segs := len(bounds) - 1
	total := ff.NumParams()
	flat, err := segmentBacking(dst, segs, total)
	if err != nil {
		return nil, err
	}
	off := 0
	for i, l := range ff.layers {
		params := ff.layerParams[i]
		if len(params) == 0 {
			ff.scaffold[i] = nil
			continue
		}
		if _, ok := l.(segmentedLayer); !ok {
			return nil, fmt.Errorf("nn: layer %d (%T) does not support batched per-client gradients", i, l)
		}
		segGradViews(ff.scaffold, i, flat, total, segs, off, params)
		off += countParams(params)
	}
	losses, correct, err := ff.lossAndGrad(in.Dense, labels, bounds, ff.scaffold)
	if err != nil {
		return nil, err
	}
	out := make([]SegmentGrad, segs)
	for s := range out {
		out[s] = SegmentGrad{Loss: losses[s], Correct: correct[s], Grad: flat[s*total : (s+1)*total : (s+1)*total]}
	}
	return out, nil
}

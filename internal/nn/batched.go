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
// The pass threads a per-worker Workspace arena through every layer, so a
// steady-state tile checks out cached buffers instead of allocating, and
// writes the per-client gradient vectors into the caller's destination (the
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

// BatchClassifier is implemented by models that can compute per-client
// gradients from one stacked batch. bounds holds len(segments)+1 ascending
// row offsets (bounds[0] = 0, bounds[len-1] = batch rows); segment s spans
// rows [bounds[s], bounds[s+1]) and every segment must be non-empty. The
// result is byte-identical to calling LossAndGrad per segment, and does not
// touch the model's own accumulated gradients (ZeroGrad / GradVector state
// is unaffected).
//
// Every activation, im2col and delta buffer of the pass is checked out of
// ws, the caller's per-worker arena; a nil ws allocates them fresh without
// changing a single output bit. The per-segment gradients land in dst: the
// caller's backing of exactly segments × NumParams() values, segment s at
// dst[s*NumParams():], cleared by the pass before it accumulates, so dst
// may hold anything on entry. The returned Grad slices alias dst and are
// valid until the caller reuses it. A nil dst allocates a fresh backing —
// the same bits either way.
type BatchClassifier interface {
	Classifier
	BatchedLossAndGrad(ws *Workspace, in Input, labels []int, bounds []int, dst []float64) ([]SegmentGrad, error)
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

// arenaLayer is implemented by layers whose forward/backward can check
// scratch buffers out of a Workspace. id is the layer's index in its model,
// which namespaces the arena keys; a nil Workspace falls back to fresh
// allocation, so Forward(x) ≡ forwardWs(nil, 0, x).
type arenaLayer interface {
	Layer
	forwardWs(ws *Workspace, id int, x *tensor.Matrix) (*tensor.Matrix, error)
	backwardWs(ws *Workspace, id int, grad *tensor.Matrix) (*tensor.Matrix, error)
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
	backwardSegmented(ws *Workspace, id int, grad *tensor.Matrix, bounds []int, segGrads [][][]float64, needDX bool) (*tensor.Matrix, error)
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

var _ BatchClassifier = (*FeedForward)(nil)

// BatchedLossAndGrad implements BatchClassifier: one forward and one
// backward pass per layer over the stacked batch, de-interleaving
// per-segment losses, prediction counts and flat parameter gradients.
func (ff *FeedForward) BatchedLossAndGrad(ws *Workspace, in Input, labels []int, bounds []int, dst []float64) ([]SegmentGrad, error) {
	if in.Dense == nil {
		return nil, errors.New("nn: FeedForward requires dense input")
	}
	if err := validateBounds(bounds, in.Dense.Rows); err != nil {
		return nil, err
	}
	logits, err := ff.forwardWs(ws, in.Dense)
	if err != nil {
		return nil, err
	}
	grad := ws.matrix(wsHead, wsLossGrad, logits.Rows, logits.Cols)
	losses, correct, err := softmaxCrossEntropySegmentedInto(grad, logits, labels, bounds)
	if err != nil {
		return nil, err
	}

	// One flat gradient vector per segment, in GradVector layout; each
	// layer's params get per-segment sub-slice views at their flat offsets.
	segs := len(bounds) - 1
	total := ff.NumParams()
	flat, err := segmentBacking(dst, segs, total)
	if err != nil {
		return nil, err
	}
	out := make([]SegmentGrad, segs)
	for s := range out {
		out[s] = SegmentGrad{Loss: losses[s], Correct: correct[s], Grad: flat[s*total : (s+1)*total : (s+1)*total]}
	}
	scaffold := ws.gradScaffold(len(ff.layers))
	off := 0
	for li, l := range ff.layers {
		params := l.Params()
		if len(params) == 0 {
			scaffold[li] = nil
			continue
		}
		segGradViews(scaffold, li, flat, total, segs, off, params)
		for _, p := range params {
			off += len(p.W)
		}
	}

	for i := len(ff.layers) - 1; i >= 0; i-- {
		l := ff.layers[i]
		if scaffold[i] == nil {
			// Parameter-free layers have nothing to segment; their input
			// gradient is row-independent already.
			if al, ok := l.(arenaLayer); ok {
				grad, err = al.backwardWs(ws, i, grad)
			} else {
				grad, err = l.Backward(grad)
			}
		} else if sl, ok := l.(segmentedLayer); ok {
			grad, err = sl.backwardSegmented(ws, i, grad, bounds, scaffold[i], i > 0)
		} else {
			return nil, fmt.Errorf("nn: layer %d (%T) does not support batched per-client gradients", i, l)
		}
		if err != nil {
			return nil, fmt.Errorf("layer %d backward: %w", i, err)
		}
	}
	return out, nil
}

package nn

import (
	"fmt"
	"math"

	"github.com/signguard/signguard/internal/tensor"
)

// softmaxCrossEntropySegmentedInto computes the softmax cross-entropy of a
// segmented batch of logits against integer labels: segment s spans logit
// rows [bounds[s], bounds[s+1]) and gets its own mean loss, its count of
// correct argmax predictions and a gradient dLoss/dLogits scaled by 1/n of
// its own size — as if each segment were a separate batch, so downstream
// layers accumulate each segment's mean gradient. Row i's gradient
// depends only on row i and its segment's size. The gradient lands in
// grad, whose every row is fully overwritten, so a stale buffer yields
// byte-identical results.
func softmaxCrossEntropySegmentedInto(grad, logits *tensor.Matrix, labels []int, bounds []int) (losses []float64, correct []int, err error) {
	if logits.Rows != len(labels) {
		return nil, nil, fmt.Errorf("%w: %d logit rows vs %d labels", ErrShape, logits.Rows, len(labels))
	}
	if grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		return nil, nil, fmt.Errorf("%w: loss grad buffer (%d,%d) vs logits (%d,%d)",
			ErrShape, grad.Rows, grad.Cols, logits.Rows, logits.Cols)
	}
	if err := validateBounds(bounds, logits.Rows); err != nil {
		return nil, nil, err
	}
	segs := len(bounds) - 1
	losses = make([]float64, segs)
	correct = make([]int, segs)
	for s := 0; s < segs; s++ {
		invN := 1.0 / float64(bounds[s+1]-bounds[s])
		for i := bounds[s]; i < bounds[s+1]; i++ {
			row := logits.Row(i)
			y := labels[i]
			if y < 0 || y >= logits.Cols {
				return nil, nil, fmt.Errorf("%w: label %d out of [0,%d)", ErrShape, y, logits.Cols)
			}
			// Numerically stable log-softmax.
			maxv := row[0]
			for _, v := range row[1:] {
				if v > maxv {
					maxv = v
				}
			}
			var sum float64
			for _, v := range row {
				sum += math.Exp(v - maxv)
			}
			logZ := maxv + math.Log(sum)
			losses[s] += (logZ - row[y]) * invN
			gRow := grad.Row(i)
			for c, v := range row {
				p := math.Exp(v - logZ)
				gRow[c] = p * invN
			}
			gRow[y] -= invN
			if Argmax(row) == y {
				correct[s]++
			}
		}
	}
	return losses, correct, nil
}

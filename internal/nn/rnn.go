package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/signguard/signguard/internal/tensor"
)

// TextRNN is a recurrent text classifier: an embedding table feeding a
// simple tanh RNN whose hidden states are mean-pooled and projected to
// class logits. It is the analog of the paper's TextRNN (a bi-LSTM) for the
// AG-News task, sized to be trainable in pure Go while producing gradients
// with the same structure: sparse embedding rows plus dense recurrent and
// output blocks.
//
// Every pass runs through one time-major batched forward (forward): per
// step t, the active rows' embeddings are gathered into a stacked matrix
// and the whole tile advances through H_t = tanh(bh + E_t·Wxhᵀ +
// H_{t-1}·Whhᵀ) with the exact matmul kernels. Predict takes the argmax of
// its logits; lossAndGradKernel adds the loss and the backward pass.
// LossAndGrad is that kernel over a single segment and BatchedLossAndGrad
// de-interleaves per-segment gradients from the same pass, so the batched
// path is byte-identical to the per-client one by construction — every
// per-segment accumulation touches only that segment's rows, in the same
// order either way.
type TextRNN struct {
	Vocab, Embed, Hidden, Classes int

	emb  *Param // Vocab x Embed
	wxh  *Param // Hidden x Embed
	whh  *Param // Hidden x Hidden
	bh   *Param // Hidden
	wout *Param // Classes x Hidden
	bout *Param // Classes

	params []*Param

	// The pass's buffers: gathered embedding rows and hidden states
	// (time-major), mean-pooled states and logits (forward), the loss
	// gradient, pooled-state gradient, recurrent gradient carry and
	// pre-activation gradient (backward). scaffold is BatchedLossAndGrad's
	// gradient-view structure (segGradViews).
	embs, hs, pooled, logits  tensor.Matrix
	lossGrad, dpooled, dh, da tensor.Matrix
	scaffold                  [][][][]float64
}

var _ Classifier = (*TextRNN)(nil)

// NewTextRNN builds a TextRNN with Xavier-uniform initialization.
func NewTextRNN(rng *rand.Rand, vocab, embed, hidden, classes int) *TextRNN {
	m := &TextRNN{
		Vocab: vocab, Embed: embed, Hidden: hidden, Classes: classes,
		emb:  newParam("rnn.embedding", vocab*embed),
		wxh:  newParam("rnn.wxh", hidden*embed),
		whh:  newParam("rnn.whh", hidden*hidden),
		bh:   newParam("rnn.bh", hidden),
		wout: newParam("rnn.wout", classes*hidden),
		bout: newParam("rnn.bout", classes),
	}
	initUniform(rng, m.emb.W, math.Sqrt(3.0/float64(embed)))
	initUniform(rng, m.wxh.W, math.Sqrt(6.0/float64(embed+hidden)))
	initUniform(rng, m.whh.W, math.Sqrt(6.0/float64(2*hidden)))
	initUniform(rng, m.wout.W, math.Sqrt(6.0/float64(hidden+classes)))
	m.params = []*Param{m.emb, m.wxh, m.whh, m.bh, m.wout, m.bout}
	m.scaffold = make([][][][]float64, 1)
	return m
}

func initUniform(rng *rand.Rand, w []float64, bound float64) {
	for i := range w {
		w[i] = (2*rng.Float64() - 1) * bound
	}
}

// NumParams returns the total number of trainable scalars.
func (m *TextRNN) NumParams() int { return countParams(m.params) }

// ParamVector returns a flat copy of all parameters.
func (m *TextRNN) ParamVector() []float64 { return flattenParams(m.params) }

// SetParamVector overwrites all parameters from a flat vector.
func (m *TextRNN) SetParamVector(v []float64) error { return unflattenInto(m.params, v) }

// GradVector returns a flat copy of all accumulated gradients.
func (m *TextRNN) GradVector() []float64 { return flattenGrads(m.params) }

// ZeroGrad clears the accumulated gradients.
func (m *TextRNN) ZeroGrad() { zeroGrads(m.params) }

// validateTokens checks every sequence is non-empty and in-vocab, and
// returns the maximum sequence length.
func (m *TextRNN) validateTokens(tokens [][]int) (int, error) {
	tmax := 0
	for r, seq := range tokens {
		if len(seq) == 0 {
			return 0, fmt.Errorf("nn: TextRNN received empty token sequence (row %d)", r)
		}
		for _, tok := range seq {
			if tok < 0 || tok >= m.Vocab {
				return 0, fmt.Errorf("%w: token %d out of vocab [0,%d)", ErrShape, tok, m.Vocab)
			}
		}
		if len(seq) > tmax {
			tmax = len(seq)
		}
	}
	return tmax, nil
}

// stepView is the (rows, cols) view over time step t of a time-major
// (Tmax*rows, cols) buffer: step t occupies rows [t*rows, (t+1)*rows).
func stepView(m *tensor.Matrix, t, rows int) tensor.Matrix {
	return tensor.Matrix{Rows: rows, Cols: m.Cols, Data: m.Data[t*rows*m.Cols : (t+1)*rows*m.Cols]}
}

// rnnSink indexes the per-segment gradient views in m.params order.
const (
	rnnEmb = iota
	rnnWxh
	rnnWhh
	rnnBh
	rnnWout
	rnnBout
)

// forward is the time-major forward pass over a batch of token sequences:
// it returns the class logits and the longest sequence's length.
//
// Rows whose sequence has ended at step t ("inactive" rows) carry stale
// values in the stacked embedding/hidden buffers; they contribute nothing
// because every forward read of row r stops at len(tokens[r]) (and, in
// lossAndGradKernel's backward, the delta matrix keeps inactive rows at
// exactly 0, which the kernels' zero-skip treats as absent terms).
func (m *TextRNN) forward(tokens [][]int) (*tensor.Matrix, int, error) {
	rows := len(tokens)
	tmax, err := m.validateTokens(tokens)
	if err != nil {
		return nil, 0, err
	}
	wxhM := &tensor.Matrix{Rows: m.Hidden, Cols: m.Embed, Data: m.wxh.W}
	whhM := &tensor.Matrix{Rows: m.Hidden, Cols: m.Hidden, Data: m.whh.W}
	woutM := &tensor.Matrix{Rows: m.Classes, Cols: m.Hidden, Data: m.wout.W}

	embs := reshape(&m.embs, tmax*rows, m.Embed)
	hs := reshape(&m.hs, tmax*rows, m.Hidden)
	pooled := reshapeZeroed(&m.pooled, rows, m.Hidden)
	logits := reshape(&m.logits, rows, m.Classes)

	// Per step, gather active embeddings and advance the whole tile
	// through one stacked matmul pair. Inactive rows compute garbage
	// (stale embeddings) that no active output ever reads — every kernel
	// here is row-independent.
	for t := 0; t < tmax; t++ {
		eT := stepView(embs, t, rows)
		hT := stepView(hs, t, rows)
		for r, seq := range tokens {
			if t >= len(seq) {
				continue
			}
			copy(eT.Row(r), m.emb.W[seq[t]*m.Embed:(seq[t]+1)*m.Embed])
		}
		for r := 0; r < rows; r++ {
			copy(hT.Row(r), m.bh.W)
		}
		if err := tensor.MulABTInto(&hT, &eT, wxhM); err != nil {
			return nil, 0, err
		}
		if t > 0 {
			hPrev := stepView(hs, t-1, rows)
			if err := tensor.MulABTInto(&hT, &hPrev, whhM); err != nil {
				return nil, 0, err
			}
		}
		for i, v := range hT.Data {
			hT.Data[i] = math.Tanh(v)
		}
		for r, seq := range tokens {
			if t >= len(seq) {
				continue
			}
			pr := pooled.Row(r)
			for i, hv := range hT.Row(r) {
				pr[i] += hv
			}
		}
	}
	for r, seq := range tokens {
		invT := 1.0 / float64(len(seq))
		pr := pooled.Row(r)
		for i := range pr {
			pr[i] *= invT
		}
	}
	for r := 0; r < rows; r++ {
		copy(logits.Row(r), m.bout.W)
	}
	if err := tensor.MulABTInto(logits, pooled, woutM); err != nil {
		return nil, 0, err
	}
	return logits, tmax, nil
}

// lossAndGradKernel is the shared time-major forward/backward pass.
// sinks[s] holds the six gradient buffers (m.params order) that segment
// s's gradient terms accumulate into; every accumulation into sinks[s]
// touches only rows [bounds[s], bounds[s+1]), in row-ascending order per
// time step, so a segment's result depends only on its own rows — the
// property that makes LossAndGrad (one segment) and BatchedLossAndGrad
// (many) byte-identical on the same rows.
//
// Backward keeps the delta matrix of inactive rows (see forward) at
// exactly 0.
func (m *TextRNN) lossAndGradKernel(tokens [][]int, labels []int, bounds []int, sinks [][][]float64) ([]float64, []int, error) {
	logits, tmax, err := m.forward(tokens)
	if err != nil {
		return nil, nil, err
	}
	rows := len(tokens)
	whhM := &tensor.Matrix{Rows: m.Hidden, Cols: m.Hidden, Data: m.whh.W}
	woutM := &tensor.Matrix{Rows: m.Classes, Cols: m.Hidden, Data: m.wout.W}
	embs, hs, pooled := &m.embs, &m.hs, &m.pooled

	lossGrad := reshape(&m.lossGrad, rows, m.Classes)
	losses, correct, err := softmaxCrossEntropySegmentedInto(lossGrad, logits, labels, bounds)
	if err != nil {
		return nil, nil, err
	}

	// Backward. Output head first: per segment, bias then weight — each
	// restricted to the segment's rows.
	segs := len(bounds) - 1
	for s := 0; s < segs; s++ {
		lo, hi := bounds[s], bounds[s+1]
		accumBias(lossGrad, sinks[s][rnnBout], lo, hi)
		gm := tensor.Matrix{Rows: m.Classes, Cols: m.Hidden, Data: sinks[s][rnnWout]}
		if err := tensor.MulATBRangeInto(&gm, lossGrad, pooled, lo, hi); err != nil {
			return nil, nil, err
		}
	}

	// dPooled = G·Wout, then scaled once per row by 1/T_r: the product is
	// the constant per-step addend of the recurrent carry.
	dpooled := reshapeZeroed(&m.dpooled, rows, m.Hidden)
	if err := tensor.MatMulInto(dpooled, lossGrad, woutM); err != nil {
		return nil, nil, err
	}
	for r, seq := range tokens {
		invT := 1.0 / float64(len(seq))
		pr := dpooled.Row(r)
		for i := range pr {
			pr[i] *= invT
		}
	}

	// dh carries the gradient flowing into h_t from the future; da is the
	// pre-tanh delta. Both start (and inactive rows stay) at exactly 0, so
	// the zero-skip kernels see inactive rows as absent.
	dh := reshapeZeroed(&m.dh, rows, m.Hidden)
	da := reshapeZeroed(&m.da, rows, m.Hidden)
	for t := tmax - 1; t >= 0; t-- {
		hT := stepView(hs, t, rows)
		eT := stepView(embs, t, rows)
		for r, seq := range tokens {
			if t >= len(seq) {
				continue
			}
			dhr, dar, dpr, hr := dh.Row(r), da.Row(r), dpooled.Row(r), hT.Row(r)
			for i := range dhr {
				dhr[i] += dpr[i]
				hv := hr[i]
				dar[i] = dhr[i] * (1 - hv*hv)
				dhr[i] = 0
			}
		}
		for s := 0; s < segs; s++ {
			lo, hi := bounds[s], bounds[s+1]
			accumBias(da, sinks[s][rnnBh], lo, hi)
			gwx := tensor.Matrix{Rows: m.Hidden, Cols: m.Embed, Data: sinks[s][rnnWxh]}
			if err := tensor.MulATBRangeInto(&gwx, da, &eT, lo, hi); err != nil {
				return nil, nil, err
			}
			embG := sinks[s][rnnEmb]
			for r := lo; r < hi; r++ {
				if t >= len(tokens[r]) {
					continue
				}
				dEmb := embG[tokens[r][t]*m.Embed : (tokens[r][t]+1)*m.Embed]
				for i, g := range da.Row(r) {
					if g == 0 {
						continue
					}
					wx := m.wxh.W[i*m.Embed : (i+1)*m.Embed]
					for j, wv := range wx {
						dEmb[j] += g * wv
					}
				}
			}
			if t > 0 {
				hPrev := stepView(hs, t-1, rows)
				gwh := tensor.Matrix{Rows: m.Hidden, Cols: m.Hidden, Data: sinks[s][rnnWhh]}
				if err := tensor.MulATBRangeInto(&gwh, da, &hPrev, lo, hi); err != nil {
					return nil, nil, err
				}
			}
		}
		if t > 0 {
			// Carry Whhᵀ·da into the previous step; inactive rows have
			// da = 0 and are skipped.
			if err := tensor.MatMulInto(dh, da, whhM); err != nil {
				return nil, nil, err
			}
		}
	}
	return losses, correct, nil
}

// LossAndGrad runs forward + backward-through-time over the batch,
// accumulating gradients into the model parameters. It is the batched
// kernel over a single segment, so per-client results agree bitwise with
// the batched engine's per-segment de-interleaving.
func (m *TextRNN) LossAndGrad(in Input, labels []int) (float64, int, error) {
	if in.Tokens == nil {
		return 0, 0, errors.New("nn: TextRNN requires token input")
	}
	if len(in.Tokens) != len(labels) {
		return 0, 0, fmt.Errorf("%w: %d sequences vs %d labels", ErrShape, len(in.Tokens), len(labels))
	}
	if len(labels) == 0 {
		return 0, 0, errors.New("nn: TextRNN on empty batch")
	}
	sinks := [][][]float64{{m.emb.Grad, m.wxh.Grad, m.whh.Grad, m.bh.Grad, m.wout.Grad, m.bout.Grad}}
	losses, correct, err := m.lossAndGradKernel(in.Tokens, labels, []int{0, len(labels)}, sinks)
	if err != nil {
		return 0, 0, err
	}
	return losses[0], correct[0], nil
}

// BatchedLossAndGrad implements Classifier for the text model: one
// time-major pass over the stacked tile with per-segment gradient
// de-interleaving.
func (m *TextRNN) BatchedLossAndGrad(in Input, labels []int, bounds []int, dst []float64) ([]SegmentGrad, error) {
	if in.Tokens == nil {
		return nil, errors.New("nn: TextRNN requires token input")
	}
	if len(in.Tokens) != len(labels) {
		return nil, fmt.Errorf("%w: %d sequences vs %d labels", ErrShape, len(in.Tokens), len(labels))
	}
	if err := validateBounds(bounds, len(in.Tokens)); err != nil {
		return nil, err
	}
	segs := len(bounds) - 1
	total := m.NumParams()
	flat, err := segmentBacking(dst, segs, total)
	if err != nil {
		return nil, err
	}
	sinks := segGradViews(m.scaffold, 0, flat, total, segs, 0, m.params)
	losses, correct, err := m.lossAndGradKernel(in.Tokens, labels, bounds, sinks)
	if err != nil {
		return nil, err
	}
	out := make([]SegmentGrad, segs)
	for s := range out {
		out[s] = SegmentGrad{Loss: losses[s], Correct: correct[s], Grad: flat[s*total : (s+1)*total : (s+1)*total]}
	}
	return out, nil
}

// Predict returns the argmax class for each token sequence.
func (m *TextRNN) Predict(in Input) ([]int, error) {
	if in.Tokens == nil {
		return nil, errors.New("nn: TextRNN requires token input")
	}
	logits, _, err := m.forward(in.Tokens)
	if err != nil {
		return nil, err
	}
	out := make([]int, logits.Rows)
	for i := range out {
		out[i] = Argmax(logits.Row(i))
	}
	return out, nil
}

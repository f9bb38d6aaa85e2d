package nn

// Workspace is a reusable scratch arena for the batched forward/backward
// path. The profiles that motivated it showed tensor.NewMatrix churn at 76%
// of allocation volume and runtime zeroing (memclr) at ~20% of CPU: every
// tile pass rebuilt every activation, im2col and delta matrix from scratch.
// A Workspace caches one buffer per (layer, slot), grown to the largest
// shape requested so far and re-sliced to each request, so a steady-state
// tile re-checks out the same memory pass after pass and the arena never
// retains more than the largest tile's buffer set — however the tile row
// counts wander (subsampled cohorts and non-IID partitions desynchronise the
// clients' epoch-boundary tail batches).
//
// Ownership rules (see docs/ARCHITECTURE.md "Workspace arenas"):
//
//   - One Workspace per worker, never shared: buffers are reused with no
//     synchronization, so concurrent passes through one arena would race.
//   - One model per Workspace: keys are (layer id, slot), which are only
//     unique within a single model's layer stack.
//   - Buffers are only valid for the duration of one pass — the next
//     checkout of the same (layer, slot) re-shapes the same matrix header.
//     Results that outlive the pass (per-client gradients handed to the
//     round pipeline) are never Workspace-backed: they land in the caller's
//     destination (BatchClassifier's dst) or a fresh vector.
//
// Determinism contract: a checked-out buffer holds stale values from earlier
// passes (of any shape), so every checkout site either fully overwrites it
// (forward activations, im2col columns, loss gradients — see matrix) or
// explicitly zeroes it first because the kernel accumulates into it (input
// gradients — see matrixZeroed). Explicit zeroing writes the same +0.0 a
// fresh allocation holds, so arena passes are byte-identical
// (math.Float64bits) to allocation-per-pass ones; the golden trace tests pin
// that equivalence.
//
// All methods tolerate a nil receiver by falling back to fresh allocation,
// so the same layer code serves both the arena path and the plain
// Forward/Backward API.

import "github.com/signguard/signguard/internal/tensor"

// wsSlot distinguishes the buffers a single layer checks out: a layer keeps
// several matrices alive at once (e.g. forward output and input gradient).
type wsSlot uint8

const (
	wsFwd      wsSlot = iota // forward output activations
	wsDX                     // input gradient (accumulated: zeroed checkout)
	wsCols                   // stacked im2col columns, all samples of the tile (fully overwritten)
	wsDCols                  // one sample's im2col gradient, overwritten per sample (not checked out by a model's first layer)
	wsPlane                  // Conv2D: one sample's zero-bordered input plane (forward: zeroed once per pass, interior rewritten per sample) or input-gradient plane (backward: cleared per sample)
	wsArgmax                 // max-pool argmax indices
	wsNZ                     // Conv2D backward: per-filter offsets, then one sample's nonzero output-gradient positions (rewritten per sample)
	wsLossGrad               // softmax cross-entropy gradient
	wsEmbeds                 // RNN: gathered embedding rows, time-major
	wsHidden                 // RNN: hidden states, time-major
	wsPooled                 // RNN: mean-pooled hidden states (accumulated)
	wsDPooled                // RNN: pooled-state gradient (accumulated)
	wsDH                     // RNN: recurrent gradient carry (accumulated)
	wsDA                     // RNN: pre-activation gradient (zeroed: inactive rows must stay 0)
	wsLogits                 // RNN: class logits
)

// wsHead is the layer id used for model-head buffers (loss gradient, RNN
// state) that do not belong to any layer index.
const wsHead = -1

// wsKey identifies one cached buffer. Shape is deliberately not part of the
// key: a tail tile with fewer rows re-slices the full-tile buffer instead of
// pinning a second buffer set for every row count ever seen.
type wsKey struct {
	layer int
	slot  wsSlot
}

// Workspace is the per-worker scratch arena. The zero value is not usable;
// construct with NewWorkspace. A nil *Workspace is valid everywhere and
// means "allocate fresh" (the non-arena path).
type Workspace struct {
	mats map[wsKey]*tensor.Matrix
	ints map[wsKey][]int

	// scaffold caches the [layer][segment][param] gradient-view structure
	// of the batched backward pass; only the leaf slice headers are
	// rewritten per pass (they point into the pass's flat gradient backing:
	// the caller's destination, or a fresh vector when it passed none).
	scaffold [][][][]float64
}

// NewWorkspace returns an empty arena.
func NewWorkspace() *Workspace {
	return &Workspace{
		mats: make(map[wsKey]*tensor.Matrix),
		ints: make(map[wsKey][]int),
	}
}

// matrix checks out the (layer, slot) buffer re-shaped to (rows, cols),
// growing its backing array when the request exceeds every earlier one. The
// contents are STALE — whatever earlier passes left — so callers must fully
// overwrite every element they read. With a nil receiver it returns a fresh
// zeroed matrix, which satisfies the same contract.
func (ws *Workspace) matrix(layer int, slot wsSlot, rows, cols int) *tensor.Matrix {
	if ws == nil {
		return tensor.NewMatrix(rows, cols)
	}
	k := wsKey{layer: layer, slot: slot}
	m, ok := ws.mats[k]
	if !ok {
		m = &tensor.Matrix{}
		ws.mats[k] = m
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// matrixZeroed is matrix with an explicit zero fill, for buffers the
// kernels accumulate into: the zeroing is the same +0.0 state a fresh
// allocation starts from, so results stay byte-identical to the
// allocation-per-pass path.
func (ws *Workspace) matrixZeroed(layer int, slot wsSlot, rows, cols int) *tensor.Matrix {
	if ws == nil {
		return tensor.NewMatrix(rows, cols)
	}
	m := ws.matrix(layer, slot, rows, cols)
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// intSlice checks out an integer scratch buffer (stale contents, same
// full-overwrite contract as matrix).
func (ws *Workspace) intSlice(layer int, slot wsSlot, n int) []int {
	if ws == nil {
		return make([]int, n)
	}
	k := wsKey{layer: layer, slot: slot}
	s := ws.ints[k]
	if cap(s) < n {
		s = make([]int, n)
		ws.ints[k] = s
	}
	return s[:n]
}

// gradScaffold returns the cached [layer][...] gradient-view scaffold,
// (re)sized to the given layer count. Callers rebuild the inner
// per-segment/per-param levels only when their lengths changed and rewrite
// the leaf slice headers every pass.
func (ws *Workspace) gradScaffold(layers int) [][][][]float64 {
	if ws == nil || len(ws.scaffold) != layers {
		s := make([][][][]float64, layers)
		if ws != nil {
			ws.scaffold = s
		}
		return s
	}
	return ws.scaffold
}

// segGradViews fills (and returns) scaffold[layer]: per-segment slices of
// per-parameter gradient views into flat, where segment s's views cover
// flat[s*total+off ... ) at the layer's parameter offsets. Only structure
// that changed shape is reallocated; leaf headers are always rewritten.
func segGradViews(scaffold [][][][]float64, layer int, flat []float64, total, segs, off int, params []*Param) [][][]float64 {
	rows := scaffold[layer]
	if len(rows) != segs {
		rows = make([][][]float64, segs)
		scaffold[layer] = rows
	}
	for s := 0; s < segs; s++ {
		views := rows[s]
		if len(views) != len(params) {
			views = make([][]float64, len(params))
			rows[s] = views
		}
		o := s*total + off
		for k, p := range params {
			// Full three-index slice: the segments share one backing
			// array, so capping each view keeps a consumer's append from
			// silently overwriting the next client's gradient.
			views[k] = flat[o : o+len(p.W) : o+len(p.W)]
			o += len(p.W)
		}
	}
	return rows
}

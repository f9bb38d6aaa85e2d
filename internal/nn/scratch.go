package nn

// Every layer and model owns the scratch of its own pass — activations,
// input gradients, im2col columns, argmax indices, loss gradients — as
// unexported fields next to the pass state it already keeps (lastInput).
// The profiles that motivated reuse showed tensor.NewMatrix churn at 76% of
// allocation volume and runtime zeroing (memclr) at ~20% of CPU when every
// pass rebuilt every buffer. A buffer is grown to the largest shape
// requested so far and re-sliced to each request, so a steady-state pass
// reuses the same memory and a layer never retains more than its largest
// pass's buffers, however the batch row counts wander (subsampled cohorts
// and non-IID partitions desynchronise the clients' epoch-boundary tail
// batches).
//
// Determinism contract: a re-sliced buffer holds stale values from earlier
// passes (of any shape), so every site either fully overwrites it (forward
// activations, im2col columns, loss gradients — see reshape) or zeroes it
// first because the kernel accumulates into it (input gradients — see
// reshapeZeroed). The zeroing writes the same +0.0 a fresh allocation
// holds, so a warm pass is byte-identical (math.Float64bits) to a freshly
// built layer's first pass; the golden trace tests pin that equivalence.

import "github.com/signguard/signguard/internal/tensor"

// grow returns s re-sliced to n elements, allocating a new backing only
// when n exceeds its capacity. The contents are STALE.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reshape re-shapes the buffer m to (rows, cols) through grow and returns
// it. The contents are stale, so callers must fully overwrite every element
// they read.
func reshape(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	m.Rows, m.Cols, m.Data = rows, cols, grow(m.Data, rows*cols)
	return m
}

// reshapeZeroed is reshape with an explicit zero fill, for buffers the
// kernels accumulate into.
func reshapeZeroed(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	reshape(m, rows, cols)
	clear(m.Data)
	return m
}

// segGradViews fills (and returns) scaffold[layer]: per-segment slices of
// per-parameter gradient views into flat, where segment s's views cover
// flat[s*total+off ... ) at the layer's parameter offsets. Only structure
// that changed shape is reallocated; leaf headers are always rewritten
// (they point into the pass's flat gradient backing: the caller's
// destination, or a fresh vector when it passed none).
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

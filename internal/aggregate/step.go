package aggregate

import (
	"errors"
	"fmt"
	"math"

	"github.com/signguard/signguard/internal/tensor"
)

// Outcome is what one server step came to; each driver maps it to its own
// policy (docs/ARCHITECTURE.md, "One server step").
type Outcome int

const (
	// Stepped: the returned gradient is finite and is the step to apply.
	Stepped Outcome = iota
	// RuleFailed: the defense errored or returned no result, or the merge
	// found the buffer malformed.
	RuleFailed
	// KeptNone: the defense selected nothing from a buffer with a stale entry.
	KeptNone
	// NonFiniteMerge: the defense's FiniteGuard fired, or the step carries
	// NaN or ±Inf.
	NonFiniteMerge
)

// StepScratch is the caller-owned memory Step merges into; the zero value
// is ready. A merged step is valid until the next Step on the same scratch.
type StepScratch struct {
	merged []float64
}

// Step is the tail every server round ends with (SignGuard's Algorithm 2:
// filter, aggregate the survivors, apply). It runs defend over grads (nil
// merges the whole buffer) and returns the step to apply with the defense's
// Result. staleness[i] is grads[i]'s age in model versions; a caller with
// nothing to attribute passes nil. When some entry is stale and the defense
// selected, the survivors merge under w(s) = 1/(1+s)^alpha. Otherwise the
// defense's own aggregate is the step, whatever Selected says: an all-fresh
// buffer weighs every entry exactly 1, and a coordinate-wise rule (Selected
// nil) has no survivors to weight. The step is checked for finiteness once,
// here. Every outcome but Stepped comes with an error saying why.
func Step(defend func([][]float64) (*Result, error), grads [][]float64, staleness []int, alpha float64, scratch *StepScratch) (merged []float64, res *Result, out Outcome, err error) {
	if defend == nil {
		merged, err = scratch.merge(grads, staleness, nil, alpha)
	} else {
		res, err = defend(grads)
		switch {
		case errors.Is(err, ErrNonFiniteAggregate):
			return nil, nil, NonFiniteMerge, err
		case err != nil:
			return nil, nil, RuleFailed, err
		case res == nil:
			return nil, nil, RuleFailed, errors.New("aggregate: rule returned no result")
		case res.Selected == nil || !anyStale(staleness):
			merged = res.Gradient
		case len(res.Selected) == 0:
			return nil, res, KeptNone, fmt.Errorf("aggregate: rule kept none of %d gradients in a buffer with stale entries", len(grads))
		default:
			merged, err = scratch.merge(grads, staleness, res.Selected, alpha)
		}
	}
	if err != nil {
		return nil, res, RuleFailed, err
	}
	if !tensor.AllFinite(merged) {
		// A single NaN coordinate in any input, or a sum overflowing to
		// ±Inf, poisons the step: it must never reach an optimizer.
		return nil, res, NonFiniteMerge, fmt.Errorf("%w: step over %d gradients", ErrNonFiniteAggregate, len(grads))
	}
	return merged, res, Stepped, nil
}

// weight is the staleness discount w(s) = 1/(1+s)^alpha of an update
// computed s model versions ago (FedBuff's polynomial discount): w(0) is
// exactly 1, alpha = 0 weighs every update 1, and a very stale straggler
// contributes, but barely.
func weight(staleness int, alpha float64) float64 {
	if staleness <= 0 {
		return 1
	}
	return math.Pow(1+float64(staleness), -alpha)
}

// merge writes the staleness-weighted average sum(w_i g_i) / sum(w_i) of
// grads[i] for i in keep (every entry when keep is nil) into the scratch
// and returns it. One sequential accumulator per coordinate walks the
// entries in order, so the result is byte-determined by that order.
func (s *StepScratch) merge(grads [][]float64, staleness, keep []int, alpha float64) ([]float64, error) {
	n := len(grads)
	if keep != nil {
		n = len(keep)
	}
	if n == 0 || len(staleness) != len(grads) {
		return nil, fmt.Errorf("aggregate: merge of %d gradients with %d staleness values", n, len(staleness))
	}
	dim := len(grads[0])
	if cap(s.merged) < dim {
		s.merged = make([]float64, dim)
	}
	out := s.merged[:dim]
	clear(out)
	var wsum float64
	for k := range n {
		i := k
		if keep != nil {
			i = keep[k]
		}
		if len(grads[i]) != dim {
			return nil, fmt.Errorf("aggregate: gradient %d has %d dims, want %d", i, len(grads[i]), dim)
		}
		w := weight(staleness[i], alpha)
		wsum += w
		for j, v := range grads[i] {
			out[j] += w * v
		}
	}
	inv := 1 / wsum
	for j := range out {
		out[j] *= inv
	}
	return out, nil
}

// anyStale reports whether some entry of staleness is positive.
func anyStale(staleness []int) bool {
	for _, s := range staleness {
		if s > 0 {
			return true
		}
	}
	return false
}

// Package aggregate implements the gradient aggregation rules (GARs) that
// the paper compares SignGuard against: plain Mean, coordinate-wise
// Trimmed-Mean and Median (Yin et al.), geometric median, Krum/Multi-Krum
// (Blanchard et al.), Bulyan (El Mhamdi et al.) and Divide-and-Conquer
// (Shejwalkar & Houmansadr), plus the related-work families FLTrust, FLAME
// and median-of-means.
//
// Every rule consumes the per-client flat gradient vectors of one round and
// produces a single aggregated gradient plus, when the rule performs
// explicit client selection, the indices of the gradients it kept — the
// signal used to compute the paper's Table II selection rates.
package aggregate

import (
	"errors"
	"fmt"

	"github.com/signguard/signguard/internal/parallel"
	"github.com/signguard/signguard/internal/tensor"
)

// ErrNoGradients is returned when a rule receives an empty gradient set.
var ErrNoGradients = errors.New("aggregate: no gradients")

// Result is the outcome of one aggregation round.
type Result struct {
	// Gradient is the aggregated global gradient.
	Gradient []float64
	// Selected lists the indices of the input gradients the rule chose to
	// aggregate, strictly ascending within [0, len(grads)), when the rule
	// performs whole-gradient selection (empty, not nil, when it kept
	// none). It is nil for coordinate-wise rules (Mean, TrMean, Median,
	// GeoMed, signSGD) where per-client attribution is not meaningful.
	// attack.Observe counts it against the Byzantine mask, once per round
	// (internal/conformance checks every registered rule's shape).
	Selected []int
}

// Rule is a gradient aggregation rule. Implementations must not retain or
// mutate the input gradient slices: the simulator reuses their memory in
// the next round (internal/conformance checks every registered rule).
type Rule interface {
	// Name returns a short stable identifier (used in reports and tables).
	Name() string
	// Aggregate combines the per-client gradients of one round.
	Aggregate(grads [][]float64) (*Result, error)
}

// WorkersSetter is implemented by rules whose hot inner loops parallelize
// across a worker pool. The contract is strict: the worker count changes
// wall-clock time only — aggregation output must be byte-identical for any
// value (see internal/parallel for the reduction discipline).
type WorkersSetter interface {
	// SetWorkers bounds the rule's kernel parallelism (0 = automatic,
	// 1 = sequential).
	SetWorkers(n int)
}

// SetWorkers configures r to use n workers if it supports parallel
// kernels, recursing into wrappers (e.g. FiniteGuard). Rules without parallel
// kernels are left untouched.
func SetWorkers(r Rule, n int) {
	if ws, ok := r.(WorkersSetter); ok {
		ws.SetWorkers(n)
	}
}

// validate checks the common preconditions: a non-empty set of equal-length
// vectors. It returns the dimensionality.
func validate(grads [][]float64) (int, error) {
	if len(grads) == 0 {
		return 0, ErrNoGradients
	}
	d := len(grads[0])
	if d == 0 {
		return 0, errors.New("aggregate: zero-dimensional gradients")
	}
	for i, g := range grads {
		if len(g) != d {
			return 0, fmt.Errorf("%w: gradient %d has %d dims, want %d", tensor.ErrDimensionMismatch, i, len(g), d)
		}
	}
	return d, nil
}

// Mean is the naive (non-robust) averaging rule — the paper's no-defense
// baseline.
type Mean struct {
	// Workers bounds the kernel parallelism (0 = automatic, 1 = sequential);
	// the output is byte-identical for any value.
	Workers int
}

var _ Rule = (*Mean)(nil)
var _ WorkersSetter = (*Mean)(nil)

// NewMean returns the plain averaging rule.
func NewMean() *Mean { return &Mean{} }

// Name implements Rule.
func (*Mean) Name() string { return "Mean" }

// SetWorkers implements WorkersSetter.
func (m *Mean) SetWorkers(n int) { m.Workers = n }

// Aggregate returns the element-wise average of all gradients.
func (m *Mean) Aggregate(grads [][]float64) (*Result, error) {
	if _, err := validate(grads); err != nil {
		return nil, err
	}
	g, err := tensor.MeanWorkers(grads, parallel.Resolve(m.Workers))
	if err != nil {
		return nil, err
	}
	return &Result{Gradient: g, Selected: allIndices(len(grads))}, nil
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

package aggregate

import (
	"errors"
	"fmt"

	"github.com/signguard/signguard/internal/tensor"
)

// ErrNonFiniteAggregate marks an aggregation whose output carried NaN or
// ±Inf coordinates; Step reports it as the NonFiniteMerge outcome.
var ErrNonFiniteAggregate = errors.New("aggregate: non-finite aggregate")

// FiniteGuard wraps a Rule and enforces the output contract every consumer
// of an aggregate relies on: the result gradient is finite. Rules are
// hardened individually against hostile buffers, but the guard makes the
// guarantee structural — a defense added tomorrow cannot silently fold NaN
// into the model because it forgot an edge case. The zero value is not
// usable; wrap with Guard.
type FiniteGuard struct {
	// Rule is the wrapped aggregation rule.
	Rule Rule
}

var (
	_ Rule          = (*FiniteGuard)(nil)
	_ WorkersSetter = (*FiniteGuard)(nil)
)

// Guard wraps r in a FiniteGuard. Wrapping an existing guard is a no-op
// (idempotent), so registry layering cannot stack redundant checks.
func Guard(r Rule) Rule {
	if r == nil {
		return nil
	}
	if _, ok := r.(*FiniteGuard); ok {
		return r
	}
	return &FiniteGuard{Rule: r}
}

// Name implements Rule: the guard is transparent in reports and tables.
func (g *FiniteGuard) Name() string { return g.Rule.Name() }

// SetWorkers implements WorkersSetter, forwarding into the wrapped rule.
func (g *FiniteGuard) SetWorkers(n int) {
	if ws, ok := g.Rule.(WorkersSetter); ok {
		ws.SetWorkers(n)
	}
}

// Unwrap strips a FiniteGuard from r, if present — the inverse of Guard for
// callers reaching for a rule's concrete type.
func Unwrap(r Rule) Rule {
	if g, ok := r.(*FiniteGuard); ok {
		return g.Rule
	}
	return r
}

// Aggregate implements Rule: it delegates and verifies the output is
// finite, returning an error wrapping ErrNonFiniteAggregate otherwise.
func (g *FiniteGuard) Aggregate(grads [][]float64) (*Result, error) {
	res, err := g.Rule.Aggregate(grads)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("%w: rule %s returned no result", ErrNonFiniteAggregate, g.Rule.Name())
	}
	if !tensor.AllFinite(res.Gradient) {
		return nil, fmt.Errorf("%w: rule %s", ErrNonFiniteAggregate, g.Rule.Name())
	}
	return res, nil
}

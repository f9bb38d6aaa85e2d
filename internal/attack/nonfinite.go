package attack

import (
	"math"

	"github.com/signguard/signguard/internal/tensor"
)

// NonFinite is the hostile-input attack: Byzantine clients submit gradients
// whose every coordinate is NaN. Unlike the statistical attacks, it does not
// try to bias the aggregate — it tries to crash or wedge the server: an
// unscreened NaN poisons clustering inertia, median norms and
// staleness-weighted merges downstream.
type NonFinite struct{}

var _ Attack = (*NonFinite)(nil)

// NewNonFinite returns the whole-vector NaN attack.
func NewNonFinite() *NonFinite {
	return &NonFinite{}
}

// Name implements Attack.
func (a *NonFinite) Name() string { return "NonFinite(NaN)" }

// Craft implements Attack.
func (a *NonFinite) Craft(ctx *Context) ([][]float64, error) {
	if err := ctx.validate(); err != nil {
		return nil, err
	}
	out := make([][]float64, ctx.NumByz())
	for i, own := range ctx.ByzOwn {
		g := tensor.Clone(own)
		tensor.Fill(g, math.NaN())
		out[i] = g
	}
	return out, nil
}

package attack

import (
	"fmt"

	"github.com/signguard/signguard/internal/stats"
)

// LIE is the "A Little Is Enough" attack (Baruch et al., NeurIPS'19). The
// adversary estimates the coordinate-wise mean µ_j and standard deviation
// σ_j of the honest gradients and has every Byzantine client send
//
//	(g_m)_j = µ_j − z·σ_j                            (Eq. 1)
//
// with a small attack factor z. Section III of the SignGuard paper shows
// why this shifts the sign statistics of the crafted gradient even though
// it stays inconspicuous in distance and cosine similarity.
type LIE struct {
	// Z is the attack factor. If Z <= 0 it is computed per round from the
	// client counts via Eq. 2 (see stats.LIEZMax). The paper's experiments
	// fix z = 0.3.
	Z float64
}

var _ Attack = (*LIE)(nil)

// NewLIE returns the LIE attack with fixed factor z (the paper uses 0.3);
// pass z <= 0 to have z_max computed from Eq. 2 each round.
func NewLIE(z float64) *LIE { return &LIE{Z: z} }

// Name implements Attack.
func (*LIE) Name() string { return "LIE" }

// CraftVector returns the single malicious vector µ − z·σ computed from the
// given honest gradients. Exposed so the Fig. 2 experiment can plot the
// sign statistics of a "virtual" LIE gradient during clean training.
func (a *LIE) CraftVector(honest [][]float64, n, m int) ([]float64, error) {
	mean, std, err := stats.CoordinateMeanStd(honest)
	if err != nil {
		return nil, fmt.Errorf("attack: LIE statistics: %w", err)
	}
	z := a.Z
	if z <= 0 {
		z = stats.LIEZMax(n, m)
	}
	out := make([]float64, len(mean))
	for j := range out {
		out[j] = mean[j] - z*std[j]
	}
	return out, nil
}

// Craft implements Attack. µ and σ are estimated over all honest gradients
// (benign and the Byzantine clients' would-be-honest ones), as the
// omniscient adversary sees them. All Byzantine clients send the same
// vector, maximizing the attack's pull on the aggregate.
func (a *LIE) Craft(ctx *Context) ([][]float64, error) {
	if err := ctx.validate(); err != nil {
		return nil, err
	}
	gm, err := a.CraftVector(ctx.AllHonest(), ctx.N(), ctx.NumByz())
	if err != nil {
		return nil, err
	}
	out := make([][]float64, ctx.NumByz())
	for i := range out {
		v := make([]float64, len(gm))
		copy(v, gm)
		out[i] = v
	}
	return out, nil
}

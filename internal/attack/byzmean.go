package attack

import (
	"fmt"

	"github.com/signguard/signguard/internal/tensor"
)

// ByzMean is the hybrid attack proposed by the SignGuard paper (Section
// III): the Byzantine cohort splits into two groups. The first group (m1
// clients, m1 = ⌊m/2⌋) sends a target gradient g_m1 — the LIE vector at
// z = 0.3 — and the second group (m2 = m − m1 clients) sends the vector
// that forces the mean of *all* n gradients to equal g_m1 exactly (Eq. 8):
//
//	g_m2 = [ (n − m1)·g_m1 − Σ_{honest} g(i) ] / m2
//
// which makes the naive mean — and any defense whose output tracks the
// mean — deliver precisely the adversary's chosen gradient.
type ByzMean struct{}

var _ Attack = (*ByzMean)(nil)

// NewByzMean returns the ByzMean attack.
func NewByzMean() *ByzMean { return &ByzMean{} }

// Name implements Attack.
func (*ByzMean) Name() string { return "ByzMean" }

// Craft implements Attack.
func (*ByzMean) Craft(ctx *Context) ([][]float64, error) {
	if err := ctx.validate(); err != nil {
		return nil, err
	}
	m := ctx.NumByz()
	n := ctx.N()
	// With a single Byzantine client there is no second group: it sends
	// the LIE vector alone.
	m1 := max(m/2, 1)
	m2 := m - m1

	gm1, err := NewLIE(0.3).CraftVector(ctx.AllHonest(), n, m)
	if err != nil {
		return nil, fmt.Errorf("attack: ByzMean target vector: %w", err)
	}
	d := len(gm1)

	out := make([][]float64, 0, m)
	for i := 0; i < m1; i++ {
		out = append(out, tensor.Clone(gm1))
	}
	if m2 > 0 {
		// Sum of the honest gradients that will actually be submitted
		// (the benign clients'): Σ_{i=m+1..n} g(i) in the paper's indexing.
		honestSum := make([]float64, d)
		for _, g := range ctx.Benign {
			if err := tensor.AddInPlace(honestSum, g); err != nil {
				return nil, err
			}
		}
		gm2 := make([]float64, d)
		for j := 0; j < d; j++ {
			gm2[j] = (float64(n-m1)*gm1[j] - honestSum[j]) / float64(m2)
		}
		for i := 0; i < m2; i++ {
			out = append(out, tensor.Clone(gm2))
		}
	}
	return out, nil
}

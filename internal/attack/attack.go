// Package attack implements every model-poisoning attack evaluated in the
// paper: the simple Random / Noise / Sign-Flipping / Label-Flipping
// attacks, the state-of-the-art Little-is-Enough (Baruch et al.) and
// Min-Max / Min-Sum (Shejwalkar & Houmansadr) attacks, the paper's new
// ByzMean hybrid attack, the scaled reverse attack used in the ablation
// study, and the time-varying strategy of Fig. 5.
//
// Attacks follow the paper's threat model: an omniscient adversary that
// observes the honest gradients of every client (both benign clients and
// the would-be-honest gradients of the clients it controls) and substitutes
// the gradients of the Byzantine cohort.
//
// Each entry of the catalog (Builtin) is one fixed configuration, the
// paper's: Random and Noise draw N(0, 0.5²); LIE estimates µ and σ over all
// honest gradients; ByzMean sends LIE(z = 0.3) from ⌊m/2⌋ clients; Min-Max
// and Min-Sum perturb along −std; SignKeep makes one shuffling pass;
// TimeVarying draws from the Fig. 5 pool; Backdoor poisons every second
// example toward class 0 with a DefaultTriggerLen trigger. The two adaptive
// adversaries share one feedback rule, throttle. The catalog Param and the
// seed are an attack's only per-cell inputs.
package attack

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/tensor"
)

// Context is everything the adversary can see in one round. Its slices are
// valid only for the duration of Craft: the simulator reuses their memory
// in the next round, so an attack that keeps a vector must copy it (and
// must not mutate them — Craft returns new vectors; the simulator screens
// only those, and conformance.CheckAttackInputRetention pins it).
type Context struct {
	// Benign holds the honest gradients of the benign clients.
	Benign [][]float64
	// ByzOwn holds the gradients the Byzantine clients would have sent had
	// they been honest (they own local data too). len(ByzOwn) is the number
	// of malicious gradients the attack must produce.
	ByzOwn [][]float64
	// Rng drives any randomness in the attack, seeded per experiment.
	Rng *rand.Rand

	// Round is the zero-based index of the current aggregation round.
	Round int
	// History holds the filtering outcomes of every previous round, oldest
	// first. The engine records it only for adversaries that declare
	// NeedsHistory; stateless attacks always see nil.
	History []Observation
}

// N returns the total number of clients.
func (c *Context) N() int { return len(c.Benign) + len(c.ByzOwn) }

// NumByz returns the number of Byzantine clients.
func (c *Context) NumByz() int { return len(c.ByzOwn) }

// AllHonest returns the concatenation of all honest gradients (benign
// first, then the Byzantine clients' would-be-honest ones). The slices are
// shared, not copied; attacks must not mutate them.
func (c *Context) AllHonest() [][]float64 {
	out := make([][]float64, 0, c.N())
	out = append(out, c.Benign...)
	out = append(out, c.ByzOwn...)
	return out
}

func (c *Context) validate() error {
	if len(c.ByzOwn) == 0 {
		return errors.New("attack: no Byzantine clients in context")
	}
	if len(c.Benign) == 0 {
		return errors.New("attack: no benign gradients to observe")
	}
	if c.Rng == nil {
		return errors.New("attack: nil rng")
	}
	d := len(c.Benign[0])
	for _, g := range c.AllHonest() {
		if len(g) != d {
			return fmt.Errorf("%w: attack context gradients disagree on dimension", tensor.ErrDimensionMismatch)
		}
	}
	return nil
}

// Attack crafts the malicious gradients for one round.
type Attack interface {
	// Name returns a short stable identifier used in tables.
	Name() string
	// Craft returns exactly len(ctx.ByzOwn) malicious gradient vectors.
	Craft(ctx *Context) ([][]float64, error)
}

// Local crafts a's gradient for one networked client that sees nothing but
// its own honest gradient g: no cohort, no filtering history. The one-client
// Context lists g both as the observed benign gradient (validate requires
// one) and as the client's own, and rng drives any randomness the attack
// draws. g is not modified.
func Local(a Attack, g []float64, rng *rand.Rand) ([]float64, error) {
	out, err := a.Craft(&Context{Benign: [][]float64{g}, ByzOwn: [][]float64{g}, Rng: rng})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// DataPoisoner is implemented by attacks that corrupt the Byzantine
// clients' local training data instead of (or in addition to) their
// gradients, e.g. label flipping.
type DataPoisoner interface {
	PoisonData(xs []data.Example, classes int) ([]data.Example, error)
}

// None is the no-attack baseline: Byzantine clients behave honestly.
type None struct{}

var _ Attack = (*None)(nil)

// NewNone returns the no-attack strategy.
func NewNone() *None { return &None{} }

// Name implements Attack.
func (*None) Name() string { return "NoAttack" }

// Craft returns the clients' own honest gradients.
func (*None) Craft(ctx *Context) ([][]float64, error) {
	if err := ctx.validate(); err != nil {
		return nil, err
	}
	return tensor.CloneAll(ctx.ByzOwn), nil
}

// noiseStd is σ of the zero-mean Gaussian the Random and Noise attacks
// draw, the paper's setting.
const noiseStd = 0.5

// Random sends pure Gaussian noise N(0, σ²·I) with σ = 0.5, the paper's
// "random attack". Each Byzantine client draws independently.
type Random struct{}

var _ Attack = (*Random)(nil)

// NewRandom returns the random attack.
func NewRandom() *Random { return &Random{} }

// Name implements Attack.
func (*Random) Name() string { return "Random" }

// Craft implements Attack.
func (*Random) Craft(ctx *Context) ([][]float64, error) {
	if err := ctx.validate(); err != nil {
		return nil, err
	}
	d := len(ctx.Benign[0])
	out := make([][]float64, ctx.NumByz())
	for i := range out {
		out[i] = tensor.RandNormal(ctx.Rng, d, 0, noiseStd)
	}
	return out, nil
}

// Noise perturbs each Byzantine client's honest gradient with Gaussian
// noise: gm = gb + N(0, σ²·I) with σ = 0.5.
type Noise struct{}

var _ Attack = (*Noise)(nil)

// NewNoise returns the noise attack.
func NewNoise() *Noise { return &Noise{} }

// Name implements Attack.
func (*Noise) Name() string { return "Noise" }

// Craft implements Attack.
func (*Noise) Craft(ctx *Context) ([][]float64, error) {
	if err := ctx.validate(); err != nil {
		return nil, err
	}
	out := make([][]float64, ctx.NumByz())
	for i, g := range ctx.ByzOwn {
		noisy := tensor.Clone(g)
		for j := range noisy {
			noisy[j] += noiseStd * ctx.Rng.NormFloat64()
		}
		out[i] = noisy
	}
	return out, nil
}

// SignFlip sends the reversed gradient without scaling: gm = -gb.
type SignFlip struct{}

var _ Attack = (*SignFlip)(nil)

// NewSignFlip returns the sign-flipping attack.
func NewSignFlip() *SignFlip { return &SignFlip{} }

// Name implements Attack.
func (*SignFlip) Name() string { return "Sign-flip" }

// Craft implements Attack.
func (*SignFlip) Craft(ctx *Context) ([][]float64, error) {
	if err := ctx.validate(); err != nil {
		return nil, err
	}
	out := make([][]float64, ctx.NumByz())
	for i, g := range ctx.ByzOwn {
		out[i] = tensor.Scale(g, -1)
	}
	return out, nil
}

// Reverse is the "reverse attack with scaling" from the DETOX paper used in
// the ablation study (Table III): gm = -r·gb with a positive scale r.
type Reverse struct {
	Scale float64
}

var _ Attack = (*Reverse)(nil)

// NewReverse returns a scaled reverse attack.
func NewReverse(scale float64) *Reverse { return &Reverse{Scale: scale} }

// Name implements Attack.
func (*Reverse) Name() string { return "Reverse" }

// Craft implements Attack.
func (a *Reverse) Craft(ctx *Context) ([][]float64, error) {
	if err := ctx.validate(); err != nil {
		return nil, err
	}
	if a.Scale <= 0 {
		return nil, fmt.Errorf("attack: Reverse scale %v must be positive", a.Scale)
	}
	out := make([][]float64, ctx.NumByz())
	for i, g := range ctx.ByzOwn {
		out[i] = tensor.Scale(g, -a.Scale)
	}
	return out, nil
}

// LabelFlip is the data-poisoning attack: Byzantine clients train honestly
// on data whose labels have been flipped l → classes-1-l, so their
// gradients are "faulty" rather than arbitrary.
type LabelFlip struct{}

var (
	_ Attack       = (*LabelFlip)(nil)
	_ DataPoisoner = (*LabelFlip)(nil)
)

// NewLabelFlip returns the label-flipping attack.
func NewLabelFlip() *LabelFlip { return &LabelFlip{} }

// Name implements Attack.
func (*LabelFlip) Name() string { return "Label-flip" }

// Craft returns the Byzantine clients' own gradients unchanged — the
// poisoning already happened at the data level.
func (*LabelFlip) Craft(ctx *Context) ([][]float64, error) {
	if err := ctx.validate(); err != nil {
		return nil, err
	}
	return tensor.CloneAll(ctx.ByzOwn), nil
}

// PoisonData implements DataPoisoner.
func (*LabelFlip) PoisonData(xs []data.Example, classes int) ([]data.Example, error) {
	return data.FlipLabels(xs, classes)
}

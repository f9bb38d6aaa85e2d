package attack

import (
	"errors"
	"fmt"
	"math/rand"
)

// TimeVarying re-draws the active attack strategy every SwitchEvery rounds,
// uniformly from the candidate pool (which should include None to match
// the paper's Fig. 5 protocol of "change the attack method randomly at each
// epoch, including the no-attack scenario").
type TimeVarying struct {
	// Candidates is the pool of strategies to draw from.
	Candidates []Attack
	// SwitchEvery is the number of rounds an attack stays active (>= 1).
	// One paper "epoch" corresponds to local-data-size/batch-size rounds.
	SwitchEvery int

	rng     *rand.Rand
	current Attack
	round   int
}

var _ Attack = (*TimeVarying)(nil)

// NewTimeVarying builds the time-varying strategy; seed makes the draw
// sequence reproducible.
func NewTimeVarying(candidates []Attack, switchEvery int, seed int64) (*TimeVarying, error) {
	if len(candidates) == 0 {
		return nil, errors.New("attack: TimeVarying needs at least one candidate")
	}
	if switchEvery < 1 {
		return nil, fmt.Errorf("attack: TimeVarying switch interval %d invalid", switchEvery)
	}
	return &TimeVarying{
		Candidates:  candidates,
		SwitchEvery: switchEvery,
		rng:         rand.New(rand.NewSource(seed)),
	}, nil
}

// DefaultTimeVaryingPool returns the paper's Fig. 5 candidate pool:
// no-attack plus the simple and state-of-the-art attacks.
func DefaultTimeVaryingPool() []Attack {
	return []Attack{
		NewNone(),
		NewRandom(),
		NewNoise(),
		NewSignFlip(),
		NewLIE(0.3),
		NewByzMean(),
		NewMinMax(),
		NewMinSum(),
	}
}

// Name implements Attack.
func (*TimeVarying) Name() string { return "TimeVarying" }

// Craft implements Attack: it advances the round counter, re-drawing the
// active strategy on switch boundaries, and delegates to it.
func (t *TimeVarying) Craft(ctx *Context) ([][]float64, error) {
	if t.round%t.SwitchEvery == 0 || t.current == nil {
		t.current = t.Candidates[t.rng.Intn(len(t.Candidates))]
	}
	t.round++
	return t.current.Craft(ctx)
}

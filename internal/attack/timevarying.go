package attack

import (
	"fmt"
	"math/rand"
)

// TimeVarying re-draws the active attack strategy at the start of every
// window of switchEvery rounds, uniformly from the paper's Fig. 5 pool:
// no-attack plus the simple and state-of-the-art attacks ("change the
// attack method randomly at each epoch, including the no-attack
// scenario"). The window is Context.Round / switchEvery, so a round whose
// Craft the engine skips (a subsampled round without a Byzantine or a
// benign participant) shifts no later window: the first crafted round of a
// new window draws, even when that window's first round was skipped.
type TimeVarying struct {
	// switchEvery is the number of rounds an attack stays active (>= 1).
	// One paper "epoch" corresponds to local-data-size/batch-size rounds.
	switchEvery int
	pool        []Attack

	rng     *rand.Rand
	current Attack
	window  int // the window current was drawn in
}

var _ Attack = (*TimeVarying)(nil)

// NewTimeVarying builds the time-varying strategy; seed makes the draw
// sequence reproducible.
func NewTimeVarying(switchEvery int, seed int64) (*TimeVarying, error) {
	if switchEvery < 1 {
		return nil, fmt.Errorf("attack: TimeVarying switch interval %d invalid", switchEvery)
	}
	return &TimeVarying{
		switchEvery: switchEvery,
		pool: []Attack{
			NewNone(),
			NewRandom(),
			NewNoise(),
			NewSignFlip(),
			NewLIE(0.3),
			NewByzMean(),
			NewMinMax(),
			NewMinSum(),
		},
		rng: rand.New(rand.NewSource(seed)),
	}, nil
}

// Name implements Attack.
func (*TimeVarying) Name() string { return "TimeVarying" }

// Craft implements Attack: it re-draws the active strategy when ctx.Round
// falls in a window other than the last draw's, and delegates to it.
func (t *TimeVarying) Craft(ctx *Context) ([][]float64, error) {
	if w := ctx.Round / t.switchEvery; t.current == nil || w != t.window {
		t.current = t.pool[t.rng.Intn(len(t.pool))]
		t.window = w
	}
	return t.current.Craft(ctx)
}

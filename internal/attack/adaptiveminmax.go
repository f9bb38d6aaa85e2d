package attack

import "github.com/signguard/signguard/internal/tensor"

// AdaptiveMinMax is the history-aware port of the Min-Max attack: it keeps
// the Min-Max form gm = avg + γ·∇p, but rescales the distance constraint
// by the throttle of the filtering feedback of previous rounds. Whenever
// the defense filtered out most of the cohort, the adversary tightens its
// constraint (smaller allowed distance → stealthier gradient); whenever the
// cohort sailed through, it relaxes the constraint back — and, against
// non-selecting defenses, beyond the static Min-Max bound up to 4× the
// distance, trading stealth for damage.
//
// The adaptation is a pure function of Context.History, so the attack
// object itself stays stateless and a run remains reproducible from its
// seed. With an empty history (round 0, or an engine that records none)
// the attack is exactly Min-Max.
type AdaptiveMinMax struct{}

var _ Adversary = (*AdaptiveMinMax)(nil)

// NewAdaptiveMinMax returns the adaptive Min-Max attack.
func NewAdaptiveMinMax() *AdaptiveMinMax { return &AdaptiveMinMax{} }

// Name implements Attack.
func (*AdaptiveMinMax) Name() string { return "Adaptive-Min-Max" }

// NeedsHistory implements Adversary: the engine must record filtering
// feedback for this attack.
func (*AdaptiveMinMax) NeedsHistory() bool { return true }

// Craft implements Attack: Min-Max with the constraint threshold scaled by
// s², where s is the throttle of ctx.History from 1 within [0.05, 4]
// (thresholds compare squared distances).
func (*AdaptiveMinMax) Craft(ctx *Context) ([][]float64, error) {
	scale := throttle(ctx.History, 1, 0.05, 4)
	engine := minMaxSum{
		bound: func(honest [][]float64, d2 []float64) (float64, error) {
			b, err := maxPairwiseSq(honest, d2)
			if err != nil {
				return 0, err
			}
			scaled := scale * scale * b
			// The γ search starts at the honest average; never tighten the
			// constraint below the average's own spread, so the attack
			// degenerates toward the (perfectly stealthy) average instead
			// of becoming infeasible.
			avg, err := tensor.Mean(honest)
			if err != nil {
				return 0, err
			}
			if err := tensor.SquaredDistancesTo(d2, avg, honest); err != nil {
				return 0, err
			}
			if floor := maxOf(d2); scaled < floor {
				scaled = floor
			}
			return scaled, nil
		},
		measure: maxOf,
	}
	return engine.Craft(ctx)
}

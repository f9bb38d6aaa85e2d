package attack

import (
	"fmt"

	"github.com/signguard/signguard/internal/tensor"
)

// AdaptiveMinMax is the history-aware port of the Min-Max attack: it keeps
// the Min-Max form gm = avg + γ·∇p, but rescales the distance constraint
// from the filtering feedback of previous rounds. Whenever the defense
// filtered out most of the cohort, the adversary tightens its constraint
// (smaller allowed distance → stealthier gradient); whenever the cohort
// sailed through, it relaxes the constraint back — and, against
// non-selecting defenses, beyond the static Min-Max bound up to MaxScale,
// trading stealth for damage.
//
// The adaptation is a pure function of Context.History, so the attack
// object itself stays stateless and a run remains reproducible from its
// seed. With an empty history (round 0, or an engine that records none)
// the attack is exactly Min-Max.
type AdaptiveMinMax struct {
	// Perturb selects the perturbation direction (default inverse-std).
	Perturb Perturbation
	// Target is the cohort acceptance rate below which the constraint
	// tightens (default 0.5).
	Target float64
	// Shrink (<1) multiplies the distance scale after a filtered round;
	// Grow (>1) multiplies it after a fully-accepted one. The scale is
	// clamped to [MinScale, MaxScale]. Defaults: 0.7, 1.15, 0.05, 4.
	Shrink, Grow       float64
	MinScale, MaxScale float64
}

var _ Adversary = (*AdaptiveMinMax)(nil)

// NewAdaptiveMinMax returns the adaptive Min-Max attack with its default
// adaptation schedule.
func NewAdaptiveMinMax() *AdaptiveMinMax {
	return &AdaptiveMinMax{
		Perturb:  InverseStd,
		Target:   0.5,
		Shrink:   0.7,
		Grow:     1.15,
		MinScale: 0.05,
		MaxScale: 4,
	}
}

// Name implements Attack.
func (*AdaptiveMinMax) Name() string { return "Adaptive-Min-Max" }

// NeedsHistory implements Adversary: the engine must record filtering
// feedback for this attack.
func (*AdaptiveMinMax) NeedsHistory() bool { return true }

// Scale replays the filtering history and returns the current constraint
// scale (1 with no history). Exported so tests and probes can assert the
// adaptation trajectory.
func (a *AdaptiveMinMax) Scale(history []Observation) float64 {
	s := 1.0
	for _, o := range history {
		rate, ok := o.ByzAcceptance()
		if !ok {
			continue
		}
		switch {
		case rate < a.Target:
			s *= a.Shrink
		case rate >= 1:
			s *= a.Grow
		}
		if s < a.MinScale {
			s = a.MinScale
		}
		if s > a.MaxScale {
			s = a.MaxScale
		}
	}
	return s
}

// Craft implements Attack: Min-Max with the constraint threshold scaled by
// Scale(ctx.History)² (thresholds compare squared distances).
func (a *AdaptiveMinMax) Craft(ctx *Context) ([][]float64, error) {
	if a.Shrink <= 0 || a.Shrink >= 1 || a.Grow < 1 {
		return nil, fmt.Errorf("attack: adaptive min-max schedule shrink=%v grow=%v invalid", a.Shrink, a.Grow)
	}
	if a.MinScale <= 0 || a.MaxScale < a.MinScale {
		return nil, fmt.Errorf("attack: adaptive min-max scale bounds [%v,%v] invalid", a.MinScale, a.MaxScale)
	}
	scale := a.Scale(ctx.History)
	engine := minMaxSum{
		perturb: a.Perturb,
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

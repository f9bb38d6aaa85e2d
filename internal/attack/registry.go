package attack

import "github.com/signguard/signguard/internal/catalog"

// Spec declares one attack in the package's catalog: the canonical
// user-facing name, the capabilities callers must provision for (history
// recording, data poisoning), the meaning of the optional scalar parameter,
// and a constructor.
//
// The catalog is the single source of truth for attack enumeration: the
// campaign registry resolves cell names through it, the experiments
// tables hold names only, and flclient's -byzantine modes, the load
// harness's Byzantine fleet and the public façade build from it by name —
// nothing else declares an attack constructor.
type Spec struct {
	// Name is the stable catalog key (the tables' column label).
	Name string
	// New builds a fresh instance. param is the attack's scalar knob (LIE's
	// z, Reverse's scale, TimeVarying's switch period, Backdoor's boost;
	// ignored by the rest), and zero always selects the documented default;
	// seed drives any construction-time randomness.
	New func(param float64, seed int64) (Attack, error)
}

// Builtin returns the attack catalog in presentation order: the paper's
// nine Table I columns, the parameterized ablation attacks, the adaptive
// round-aware attacks, the non-finite (NaN) injection, and the backdoor /
// model-replacement adversary. Each call returns a fresh copy.
func Builtin() *catalog.Catalog[Spec] {
	return catalog.Must("attack", func(s Spec) string { return s.Name }, []Spec{
		{Name: "NoAttack", New: func(float64, int64) (Attack, error) { return NewNone(), nil }},
		{Name: "Random", New: func(float64, int64) (Attack, error) { return NewRandom(), nil }},
		{Name: "Noise", New: func(float64, int64) (Attack, error) { return NewNoise(), nil }},
		{Name: "Label-flip", New: func(float64, int64) (Attack, error) { return NewLabelFlip(), nil }},
		{Name: "ByzMean", New: func(float64, int64) (Attack, error) { return NewByzMean(), nil }},
		{Name: "Sign-flip", New: func(float64, int64) (Attack, error) { return NewSignFlip(), nil }},
		{Name: "LIE", New: func(z float64, _ int64) (Attack, error) {
			if z == 0 {
				z = 0.3
			}
			return NewLIE(z), nil
		}},
		{Name: "Min-Max", New: func(float64, int64) (Attack, error) { return NewMinMax(), nil }},
		{Name: "Min-Sum", New: func(float64, int64) (Attack, error) { return NewMinSum(), nil }},
		{Name: "Reverse", New: func(scale float64, _ int64) (Attack, error) {
			if scale <= 0 {
				scale = 1
			}
			return NewReverse(scale), nil
		}},
		{Name: "TimeVarying", New: func(every float64, seed int64) (Attack, error) {
			switchEvery := int(every)
			if switchEvery < 1 {
				switchEvery = 1
			}
			tv, err := NewTimeVarying(switchEvery, seed)
			if err != nil {
				return nil, err
			}
			return tv, nil
		}},
		{Name: "Adaptive-Min-Max", New: func(float64, int64) (Attack, error) { return NewAdaptiveMinMax(), nil }},
		{Name: "SignKeep", New: func(float64, int64) (Attack, error) { return NewSignKeeping(), nil }},
		{Name: "NonFinite-NaN", New: func(float64, int64) (Attack, error) { return NewNonFinite(), nil }},
		{Name: "Backdoor", New: func(boost float64, _ int64) (Attack, error) {
			return NewBackdoor(boost), nil
		}},
	}...)
}

package conformance

// Ownership checks: the simulator reuses the memory of a round's gradients
// in the next round (fl.Simulation's round arenas), so a registered defense
// or attack that kept a vector it was handed would silently read the next
// round's values, and a codec that decoded differently into a reused
// destination would change the trace. These checks make both rules
// executable.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/tensor"
)

// fillNaN overwrites every value of the given vectors with NaN.
func fillNaN(vs ...[]float64) {
	for _, v := range vs {
		for i := range v {
			v[i] = math.NaN()
		}
	}
}

// diffVectors describes the first Float64bits difference between two
// vectors, or returns nil when they are identical.
func diffVectors(want, got []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("dimension %d, want %d", len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			return fmt.Errorf("coordinate %d is %v, want %v", j, got[j], want[j])
		}
	}
	return nil
}

// diffResults is diffVectors for two aggregation results, selections
// included.
func diffResults(want, got *aggregate.Result) error {
	if err := diffVectors(want.Gradient, got.Gradient); err != nil {
		return err
	}
	if !slices.Equal(got.Selected, want.Selected) {
		return fmt.Errorf("selection %v, want %v", got.Selected, want.Selected)
	}
	return nil
}

// CheckDefenseInputRetention asserts that a defense keeps none of the
// vectors it was handed. One instance aggregates cohort A; A's vectors and
// the server gradient installed for it are then overwritten with NaN, a
// new server gradient is installed, and it aggregates cohort B. A fresh
// instance that saw an untouched A and then B must return the same bits
// and selection.
func CheckDefenseInputRetention(reg *defense.Registry, name string, seed int64) error {
	a, b := cohort(seed), cohort(seed+1000)
	serverA := tensor.RandNormal(tensor.NewRNG(seed+1), CohortDim, 0, 1)
	serverB := tensor.RandNormal(tensor.NewRNG(seed+2), CohortDim, 0, 1)
	run := func(poison bool) (*aggregate.Result, error) {
		inA, sA := tensor.CloneAll(a), tensor.Clone(serverA)
		rule, err := buildRule(reg, name, seed, sA)
		if err != nil {
			return nil, err
		}
		if _, err := rule.Aggregate(inA); err != nil {
			return nil, fmt.Errorf("%s on cohort A: %w", name, err)
		}
		if poison {
			fillNaN(inA...)
			fillNaN(sA)
		}
		if sl, ok := aggregate.Unwrap(rule).(aggregate.ServerLearner); ok {
			sl.SetServerGradient(tensor.Clone(serverB))
		}
		res, err := rule.Aggregate(tensor.CloneAll(b))
		if err != nil {
			return nil, fmt.Errorf("%s on cohort B: %w", name, err)
		}
		return res, nil
	}
	want, err := run(false)
	if err != nil {
		return err
	}
	got, err := run(true)
	if err != nil {
		return err
	}
	if err := diffResults(want, got); err != nil {
		return fmt.Errorf("%s keeps its inputs: after cohort A was overwritten, cohort B's %w", name, err)
	}
	return nil
}

// attackRound builds round r's adversary view from seed: the conformance
// cohort split into Byzantine-own and benign gradients and r rounds of
// filtering history.
func attackRound(seed int64, r int, rng *rand.Rand) *attack.Context {
	grads := cohort(seed)
	history := make([]attack.Observation, r)
	for i := range history {
		history[i] = attack.Observation{
			Round: i, SelectedByz: 1, TotalByz: CohortF,
			SelectedHonest: CohortN - CohortF - 1, TotalHonest: CohortN - CohortF,
			HasSelection: true,
		}
	}
	return &attack.Context{
		Benign: grads[CohortF:], ByzOwn: grads[:CohortF], Rng: rng,
		Round: r, History: history,
	}
}

// CheckAttackInputRetention is CheckDefenseInputRetention for an attack's
// Craft across two rounds: round A's Context vectors — benign and
// Byzantine-own — are overwritten with NaN before round B, whose crafted
// vectors must match those of a fresh instance that saw an untouched A.
// It also holds Craft to leaving round A's vectors bit-identical: fl's
// round screen reads only the crafted vectors, so a benign one an attack
// wrote would reach the defense unscreened.
func CheckAttackInputRetention(spec attack.Spec, seed int64) error {
	run := func(poison bool) ([][]float64, error) {
		att, err := spec.New(0, seed)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", spec.Name, err)
		}
		adv := attack.Promote(att)
		rng := tensor.NewRNG(seed + 7)
		a := attackRound(seed, 1, rng)
		inputs := tensor.CloneAll(a.AllHonest()) // benign, then Byzantine-own
		if _, err := adv.Craft(a); err != nil {
			return nil, fmt.Errorf("%s round A: %w", spec.Name, err)
		}
		for i, v := range a.AllHonest() {
			if err := diffVectors(inputs[i], v); err != nil {
				return nil, fmt.Errorf("%s writes its inputs: round A's honest vector %d (Benign, then ByzOwn) %w", spec.Name, i, err)
			}
		}
		if poison {
			fillNaN(a.Benign...)
			fillNaN(a.ByzOwn...)
		}
		out, err := adv.Craft(attackRound(seed+1000, 2, rng))
		if err != nil {
			return nil, fmt.Errorf("%s round B: %w", spec.Name, err)
		}
		return out, nil
	}
	want, err := run(false)
	if err != nil {
		return err
	}
	got, err := run(true)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s crafted %d vectors in round B after round A was overwritten, %d otherwise", spec.Name, len(got), len(want))
	}
	for i := range want {
		if err := diffVectors(want[i], got[i]); err != nil {
			return fmt.Errorf("%s keeps its inputs: after round A was overwritten, round B's vector %d %w", spec.Name, i, err)
		}
	}
	return nil
}

// dirtyDestinations returns, by name, the reused destinations a decode of
// dim values must be indifferent to: NaN-filled, holding stale values, one
// value too short (decodes fresh), and empty with spare capacity (capacity
// is what counts).
func dirtyDestinations(dim int) map[string][]float64 {
	nan := func(n int) []float64 {
		v := make([]float64, n)
		fillNaN(v)
		return v
	}
	stale := make([]float64, dim)
	for i := range stale {
		stale[i] = math.Copysign(math.MaxFloat64, float64(i%2)-0.5)
	}
	return map[string][]float64{
		"NaN-filled":        nan(dim),
		"stale (cap = Dim)": stale,
		"short (cap < Dim)": nan(max(dim-1, 0)),
		"long (cap > Dim)":  nan(dim + 8)[:0],
	}
}

// CheckCodecDestination asserts the decode-destination contract (see
// codec.Encoded.WithDst): every payload CheckCodecRoundTrip builds decodes
// into each dirty destination Float64bits-identical to a plain decode;
// every MalformedPayloads variant is refused with or without one; and a
// payload that crosses JSON arrives without its destination — decoding the
// copy neither writes the destination nor returns it.
func CheckCodecDestination(reg *codec.Registry, name string, seed int64) error {
	c, _, encs, err := codecPayloads(reg, name, seed)
	if err != nil {
		return err
	}
	for trial, enc := range encs {
		want, err := c.Decode(enc)
		if err != nil {
			return fmt.Errorf("codec %s decode (trial %d): %w", name, trial, err)
		}
		for kind, buf := range dirtyDestinations(enc.Dim) {
			got, err := c.Decode(enc.WithDst(buf))
			if err != nil {
				return fmt.Errorf("codec %s decode into a %s destination (trial %d): %w", name, kind, trial, err)
			}
			if err := diffVectors(want, got); err != nil {
				return fmt.Errorf("codec %s decodes differently into a %s destination (trial %d): %w", name, kind, trial, err)
			}
		}
	}
	for i, bad := range MalformedPayloads(encs[0]) {
		for kind, buf := range dirtyDestinations(CodecDim) {
			if _, err := c.Decode(bad.WithDst(buf)); err == nil {
				return fmt.Errorf("codec %s decoded malformed payload %d into a %s destination", name, i, kind)
			}
		}
	}

	dst := make([]float64, CodecDim)
	fillNaN(dst)
	var back codec.Encoded
	js, err := json.Marshal(encs[0].WithDst(dst))
	if err == nil {
		err = json.Unmarshal(js, &back)
	}
	if err != nil {
		return fmt.Errorf("codec %s JSON round trip: %w", name, err)
	}
	got, err := c.Decode(back)
	if err != nil {
		return fmt.Errorf("codec %s decode after a JSON round trip: %w", name, err)
	}
	if &got[0] == &dst[0] || !math.IsNaN(dst[0]) {
		return fmt.Errorf("codec %s: the decode destination travelled through JSON", name)
	}
	return nil
}

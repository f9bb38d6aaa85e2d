package attack

import (
	"testing"

	"github.com/signguard/signguard/internal/tensor"
)

// minmaxContext builds a reproducible attack context.
func minmaxContext(seed int64) *Context {
	rng := tensor.NewRNG(seed)
	benign := make([][]float64, 8)
	for i := range benign {
		benign[i] = tensor.RandNormal(rng, 30, 0.1, 1)
	}
	byz := make([][]float64, 3)
	for i := range byz {
		byz[i] = tensor.RandNormal(rng, 30, 0.1, 1)
	}
	return &Context{Benign: benign, ByzOwn: byz, Rng: tensor.NewRNG(seed + 1)}
}

func TestPromote(t *testing.T) {
	shim := Promote(NewSignFlip())
	if shim.NeedsHistory() {
		t.Error("promoted stateless attack requests history")
	}
	if shim.Name() != "Sign-flip" {
		t.Errorf("promoted shim lost the name: %q", shim.Name())
	}
	adaptive := NewAdaptiveMinMax()
	if got := Promote(adaptive); got != Adversary(adaptive) {
		t.Error("Promote wrapped an attack that is already an Adversary")
	}
	if !adaptive.NeedsHistory() {
		t.Error("AdaptiveMinMax must request history")
	}
}

func TestAdaptiveMinMaxMatchesMinMaxWithoutHistory(t *testing.T) {
	want, err := NewMinMax().Craft(minmaxContext(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewAdaptiveMinMax().Craft(minmaxContext(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("gradient %d coordinate %d: adaptive %v != static %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestThrottle walks the adaptive adversaries' one feedback rule: the start
// value with no history or selection-free rounds, ×0.7 after a filtered
// round, ×1.15 after a fully accepted one, a hold for a partial acceptance
// of at least half the cohort, and the clamp to [lo, hi] after every round.
func TestThrottle(t *testing.T) {
	filtered := Observation{HasSelection: true, SelectedByz: 0, TotalByz: 2}
	half := Observation{HasSelection: true, SelectedByz: 1, TotalByz: 2}
	accepted := Observation{HasSelection: true, SelectedByz: 2, TotalByz: 2}
	blind := Observation{HasSelection: false}
	scale := func(h ...Observation) float64 { return throttle(h, 1, 0.05, 4) }

	if s := scale(); s != 1 {
		t.Errorf("empty history: %v, want the start 1", s)
	}
	if s := scale(blind, blind); s != 1 {
		t.Errorf("selection-free history moved the value: %v", s)
	}
	if s := scale(filtered); s != 0.7 {
		t.Errorf("one filtered round: %v, want 0.7", s)
	}
	if s := scale(filtered, half); s != 0.7 {
		t.Errorf("half-accepted round after a filtered one: %v, want the held 0.7", s)
	}
	if s, grow := scale(accepted, accepted), 1.15; s != grow*grow {
		t.Errorf("two accepted rounds: %v, want %v", s, grow*grow)
	}
	many := make([]Observation, 100)
	for i := range many {
		many[i] = filtered
	}
	if s := scale(many...); s != 0.05 {
		t.Errorf("not clamped low: %v", s)
	}
	// Recovery from the floor is gradual, and sustained acceptance stops
	// at the ceiling.
	if s := scale(append(many, accepted, accepted)...); s <= 0.05 || s >= 1 {
		t.Errorf("two accepted rounds after the floor: %v, want strictly between 0.05 and 1", s)
	}
	for i := range many {
		many[i] = accepted
	}
	if s := scale(many...); s != 4 {
		t.Errorf("not clamped high: %v", s)
	}
}

// TestAdaptiveMinMaxScaleSchedule checks the throttle Adaptive-Min-Max
// crafts with, on its output: selection-free rounds and a half-accepted
// round after a filtered one leave the gradient as it was, and the scale
// stops at its ceiling 4 — ten accepted rounds (1.15¹⁰ > 4) craft what
// forty do, nine (1.15⁹ < 4) a gradient closer to the honest set.
func TestAdaptiveMinMaxScaleSchedule(t *testing.T) {
	filtered := Observation{HasSelection: true, SelectedByz: 0, TotalByz: 3}
	half := Observation{HasSelection: true, SelectedByz: 2, TotalByz: 3}
	accepted := Observation{HasSelection: true, SelectedByz: 3, TotalByz: 3}
	blind := Observation{HasSelection: false}
	craft := func(history ...Observation) []float64 {
		ctx := minmaxContext(9)
		ctx.History = history
		out, err := NewAdaptiveMinMax().Craft(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	same := func(a, b []float64) bool {
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
		return true
	}
	run := func(o Observation, n int) []Observation {
		h := make([]Observation, n)
		for i := range h {
			h[i] = o
		}
		return h
	}

	if !same(craft(blind, blind), craft()) {
		t.Error("selection-free rounds moved the crafted gradient")
	}
	if !same(craft(filtered, half), craft(filtered)) {
		t.Error("a half-accepted round after a filtered one moved the crafted gradient")
	}
	if !same(craft(run(accepted, 10)...), craft(run(accepted, 40)...)) {
		t.Error("the scale grew past its ceiling 4")
	}
	honest := minmaxContext(9).AllHonest()
	d9, err := maxDistSqTo(craft(run(accepted, 9)...), honest)
	if err != nil {
		t.Fatal(err)
	}
	d10, err := maxDistSqTo(craft(run(accepted, 10)...), honest)
	if err != nil {
		t.Fatal(err)
	}
	if !(d9 < d10) {
		t.Errorf("nine accepted rounds reached the ceiling: distance %v, ten %v", d9, d10)
	}
}

func TestAdaptiveMinMaxTightensAfterFiltering(t *testing.T) {
	a := NewAdaptiveMinMax()
	base := minmaxContext(9)
	bound, err := maxPairwiseSq(base.AllHonest(), make([]float64, len(base.AllHonest())))
	if err != nil {
		t.Fatal(err)
	}

	dist := func(history []Observation) float64 {
		ctx := minmaxContext(9)
		ctx.History = history
		out, err := a.Craft(ctx)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := maxDistSqTo(out[0], ctx.AllHonest())
		if err != nil {
			t.Fatal(err)
		}
		return d2
	}

	filtered := Observation{HasSelection: true, SelectedByz: 0, TotalByz: 3}
	accepted := Observation{HasSelection: true, SelectedByz: 3, TotalByz: 3}

	dNone := dist(nil)
	dTight := dist([]Observation{filtered, filtered, filtered})
	dLoose := dist([]Observation{accepted, accepted, accepted})

	if dNone > bound*1.0001 {
		t.Errorf("static constraint violated: %v > %v", dNone, bound)
	}
	if !(dTight < dNone) {
		t.Errorf("filtering did not tighten the attack: tight %v vs base %v", dTight, dNone)
	}
	if !(dLoose > dNone) {
		t.Errorf("acceptance did not relax the attack: loose %v vs base %v", dLoose, dNone)
	}
	// The tightened candidate respects the scaled bound (floored at the
	// honest average's own spread, which keeps γ=0 feasible).
	avg, err := tensor.Mean(base.AllHonest())
	if err != nil {
		t.Fatal(err)
	}
	floor, err := maxDistSqTo(avg, base.AllHonest())
	if err != nil {
		t.Fatal(err)
	}
	s := throttle([]Observation{filtered, filtered, filtered}, 1, 0.05, 4)
	limit := s * s * bound
	if floor > limit {
		limit = floor
	}
	if dTight > limit*1.0001 {
		t.Errorf("tightened attack exceeds its scaled bound: %v > %v", dTight, limit)
	}
}

// maxDistSqTo is the per-pair reference for the Min-Max candidate
// statistic: the largest squared distance from gm to any honest gradient.
func maxDistSqTo(gm []float64, honest [][]float64) (float64, error) {
	var maxToGm float64
	for _, g := range honest {
		d2, err := tensor.SquaredDistance(gm, g)
		if err != nil {
			return 0, err
		}
		if d2 > maxToGm {
			maxToGm = d2
		}
	}
	return maxToGm, nil
}

func TestObservationByzAcceptance(t *testing.T) {
	if _, ok := (Observation{HasSelection: false, TotalByz: 3}).ByzAcceptance(); ok {
		t.Error("acceptance reported without selection info")
	}
	if _, ok := (Observation{HasSelection: true, TotalByz: 0}).ByzAcceptance(); ok {
		t.Error("acceptance reported with zero cohort")
	}
	r, ok := (Observation{HasSelection: true, SelectedByz: 1, TotalByz: 4}).ByzAcceptance()
	if !ok || r != 0.25 {
		t.Errorf("acceptance = %v, %v", r, ok)
	}
}

func TestObserve(t *testing.T) {
	o := Observe(4, []int{0, 2, 3}, []bool{false, true, false, true, false})
	want := Observation{Round: 4, SelectedHonest: 2, SelectedByz: 1, TotalHonest: 3, TotalByz: 2, HasSelection: true}
	if o != want {
		t.Errorf("Observe = %+v, want %+v", o, want)
	}
}

// A rule that reports no selection leaves HasSelection false and the
// selected counts zero; the totals are still counted.
func TestObserveNil(t *testing.T) {
	o := Observe(0, nil, []bool{false, true})
	want := Observation{TotalHonest: 1, TotalByz: 1}
	if o != want {
		t.Errorf("Observe(nil) = %+v, want %+v", o, want)
	}
	// An empty non-nil selection (FLTrust trusting no one) is a selection.
	if o := Observe(0, []int{}, []bool{false, true}); !o.HasSelection || o.SelectedHonest+o.SelectedByz != 0 {
		t.Errorf("Observe(empty) = %+v", o)
	}
}

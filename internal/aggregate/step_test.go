package aggregate

import (
	"errors"
	"math"
	"testing"

	"github.com/signguard/signguard/internal/tensor"
)

// stubRule answers every call with a fixed result and error.
type stubRule struct {
	res *Result
	err error
}

func (stubRule) Name() string { return "stub" }

func (r stubRule) Aggregate([][]float64) (*Result, error) { return r.res, r.err }

// TestStepOutcomes is Step's outcome table: which buffer, staleness and
// defense answer lead to which outcome, and what is stepped.
func TestStepOutcomes(t *testing.T) {
	nan := math.NaN()
	zero := []float64{0, 0}
	grads := [][]float64{{1, 2}, {3, 4}}
	keepNone := stubRule{res: &Result{Gradient: zero, Selected: []int{}}}
	for _, tc := range []struct {
		name   string
		defend func([][]float64) (*Result, error)
		grads  [][]float64
		stale  []int
		want   Outcome
		merged []float64 // the step, when want is Stepped
	}{
		{"stale buffer, rule keeps none", keepNone.Aggregate, grads, []int{0, 1}, KeptNone, nil},
		{"fresh buffer, rule keeps none: its zero gradient", keepNone.Aggregate, grads, []int{0, 0}, Stepped, zero},
		{"no staleness, rule keeps none: its zero gradient", keepNone.Aggregate, grads, nil, Stepped, zero},
		{"stale buffer, selection merged under its weights",
			stubRule{res: &Result{Gradient: zero, Selected: []int{1}}}.Aggregate, grads, []int{5, 3}, Stepped, []float64{3, 4}},
		{"stale buffer, coordinate-wise rule: its aggregate",
			stubRule{res: &Result{Gradient: []float64{7, 8}}}.Aggregate, grads, []int{0, 1}, Stepped, []float64{7, 8}},
		{"rule error", stubRule{err: errors.New("refused")}.Aggregate, grads, []int{0, 1}, RuleFailed, nil},
		{"rule returns no result", stubRule{}.Aggregate, grads, nil, RuleFailed, nil},
		{"finite guard fires", Guard(stubRule{res: &Result{Gradient: []float64{nan, 0}}}).Aggregate, grads, nil, NonFiniteMerge, nil},
		{"unguarded non-finite aggregate", stubRule{res: &Result{Gradient: []float64{math.Inf(1), 0}}}.Aggregate, grads, nil, NonFiniteMerge, nil},
		{"nil defense, NaN reaches the merge", nil, [][]float64{{1, 2, 3}, {4, nan, 6}}, []int{0, 1}, NonFiniteMerge, nil},
		{"nil defense, merge overflows", nil, [][]float64{{math.MaxFloat64}, {math.MaxFloat64}}, []int{0, 0}, NonFiniteMerge, nil},
		{"nil defense, ragged buffer", nil, [][]float64{{1}, {1, 2}}, []int{0, 0}, RuleFailed, nil},
		{"nil defense, fresh buffer: the mean", nil, grads, []int{0, 0}, Stepped, []float64{2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			merged, _, out, err := Step(tc.defend, tc.grads, tc.stale, 0.5, &StepScratch{})
			if out != tc.want {
				t.Fatalf("outcome %d (err %v), want %d", out, err, tc.want)
			}
			if (err == nil) != (out == Stepped) {
				t.Errorf("outcome %d with err %v: every outcome but Stepped carries an error", out, err)
			}
			if out == NonFiniteMerge && !errors.Is(err, ErrNonFiniteAggregate) {
				t.Errorf("non-finite merge err %v does not wrap ErrNonFiniteAggregate", err)
			}
			if out != Stepped && merged != nil {
				t.Errorf("outcome %d returned a step %v", out, merged)
			}
			if !tensor.Equal(merged, tc.merged, 1e-12) {
				t.Errorf("step %v, want %v", merged, tc.merged)
			}
		})
	}
}

// TestStepFreshBufferIsRuleAggregate: with no stale entry the step is the
// rule's own aggregate bit for bit (Bulyan's trimmed mean, not the mean of
// what it selected); one stale entry makes it the weighted merge of the
// selection instead.
func TestStepFreshBufferIsRuleAggregate(t *testing.T) {
	grads := honestSet(5, 8, 6, 1, 0.1)
	tensor.ScaleInPlace(grads[7], 30)
	want, err := NewBulyan(1).Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	var scratch StepScratch
	for _, stale := range [][]int{nil, make([]int, len(grads))} {
		merged, res, out, err := Step(NewBulyan(1).Aggregate, grads, stale, 1, &scratch)
		if out != Stepped || err != nil {
			t.Fatalf("staleness %v: outcome %d, err %v", stale, out, err)
		}
		if len(res.Selected) >= len(grads) {
			t.Fatalf("Bulyan kept all %d gradients: the buffer does not filter", len(grads))
		}
		for j := range merged {
			if math.Float64bits(merged[j]) != math.Float64bits(want.Gradient[j]) {
				t.Fatalf("staleness %v, coordinate %d: %v, want the rule's %v", stale, j, merged[j], want.Gradient[j])
			}
		}
	}

	stale := make([]int, len(grads))
	stale[want.Selected[0]] = 3
	merged, _, out, err := Step(NewBulyan(1).Aggregate, grads, stale, 1, &scratch)
	if out != Stepped || err != nil {
		t.Fatalf("stale buffer: outcome %d, err %v", out, err)
	}
	var sel [][]float64
	var selStale []int
	for _, i := range want.Selected {
		sel, selStale = append(sel, grads[i]), append(selStale, stale[i])
	}
	ref, err := (&StepScratch{}).merge(sel, selStale, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(merged, ref, 0) || tensor.Equal(merged, want.Gradient, 1e-9) {
		t.Errorf("stale buffer: step %v, want the selection's weighted merge %v", merged, ref)
	}
}

// --- staleness weighting edge cases ---------------------------------------

func TestWeightFresh(t *testing.T) {
	for _, alpha := range []float64{0, 0.5, 1, 3} {
		if w := weight(0, alpha); w != 1 {
			t.Errorf("weight(0, %v) = %v, want exactly 1", alpha, w)
		}
	}
}

func TestWeightAlphaZeroIsUniform(t *testing.T) {
	for _, s := range []int{0, 1, 7, 1000} {
		if w := weight(s, 0); w != 1 {
			t.Errorf("weight(%d, 0) = %v, want exactly 1", s, w)
		}
	}
}

func TestWeightVeryStaleVanishes(t *testing.T) {
	prev := math.Inf(1)
	for _, s := range []int{1, 10, 100, 10000, 1 << 30} {
		w := weight(s, 1.5)
		if w <= 0 || w >= 1 {
			t.Fatalf("weight(%d, 1.5) = %v, want in (0, 1)", s, w)
		}
		if w >= prev {
			t.Fatalf("weight not monotonically decreasing at s=%d: %v >= %v", s, w, prev)
		}
		prev = w
	}
	if w := weight(1<<30, 1.5); w > 1e-12 {
		t.Errorf("very stale weight %v, want ~0", w)
	}
}

func TestWeightedMergeAlphaZeroIsPlainMean(t *testing.T) {
	rng := tensor.NewRNG(7)
	grads := make([][]float64, 5)
	stale := make([]int, 5)
	for i := range grads {
		grads[i] = tensor.RandNormal(rng, 16, 0, 1)
		stale[i] = i * 3 // staleness must be irrelevant at alpha = 0
	}
	got, err := (&StepScratch{}).merge(grads, stale, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The reference mean accumulates in the same order with the same
	// normalization (sum of unit weights), so equality is bitwise.
	want := make([]float64, 16)
	for _, g := range grads {
		for j, v := range g {
			want[j] += v
		}
	}
	for j := range want {
		want[j] *= 1.0 / 5.0
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("coordinate %d: got %v want %v (not byte-identical)", j, got[j], want[j])
		}
	}
}

func TestWeightedMergeDiscountsStale(t *testing.T) {
	// One fresh gradient pointing at +1, one very stale at -1: the merge
	// must land near +1, not near 0.
	grads := [][]float64{{1}, {-1}}
	got, err := (&StepScratch{}).merge(grads, []int{0, 1000}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] < 0.99 {
		t.Fatalf("stale gradient dominated the merge: %v", got[0])
	}
}

func TestWeightedMergeErrors(t *testing.T) {
	var s StepScratch
	if _, err := s.merge(nil, nil, nil, 1); err == nil {
		t.Error("empty buffer: want error")
	}
	if _, err := s.merge([][]float64{{1}}, []int{0, 1}, nil, 1); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := s.merge([][]float64{{1}, {1, 2}}, []int{0, 0}, nil, 1); err == nil {
		t.Error("dim mismatch: want error")
	}
}

// TestWeightedMergeReusesScratch: a merge into a scratch that held a
// longer, different merge leaves none of it behind.
func TestWeightedMergeReusesScratch(t *testing.T) {
	var s StepScratch
	if _, err := s.merge([][]float64{{9, 9, 9}}, []int{0}, nil, 1); err != nil {
		t.Fatal(err)
	}
	got, err := s.merge([][]float64{{1, 2}, {3, 4}}, []int{0, 0}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, []float64{2, 3}, 0) {
		t.Errorf("merge into a used scratch = %v, want [2 3]", got)
	}
}

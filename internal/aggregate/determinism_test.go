package aggregate

import (
	"fmt"
	"math"
	"testing"
)

// newRules builds one instance of every parallelizable rule at the given
// worker count, on a fixed-seed cohort of n=41 gradients. The sizes are
// chosen so every rule's preconditions hold: Krum needs n >= 2F+3 (41 >=
// 19), Bulyan needs n >= 4F+2 (41 >= 38) and DnC must not remove all
// gradients. DnC and FLAME instances are freshly seeded per worker count so
// their RNG streams (coordinate subsampling; k-means++ seeding) match.
func newRules(workers int) []Rule {
	dnc := NewDnC(8, 77)
	dnc.SubDim = 97 // force actual subsampling below d
	rules := []Rule{
		&MultiKrum{F: 8, M: 1},
		&MultiKrum{F: 8, M: 5},
		&Bulyan{F: 9},
		dnc,
		&GeoMed{},
		&TrimmedMean{K: 5},
		&Median{},
		&Mean{},
		NewFLAME(42),
		NewMedianOfMeans(),
	}
	for _, r := range rules {
		SetWorkers(r, workers)
	}
	return rules
}

// sameBits reports whether a and b are bit-for-bit identical float slices
// (distinguishing +0/-0 and any NaN payloads — stricter than ==).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The repo-wide parallelism contract: for every rule, any Workers value
// produces byte-identical output — same gradient bits, same selection.
func TestAggregationByteIdenticalAcrossWorkers(t *testing.T) {
	grads := honestSet(123, 41, 257, 0.1, 1.3)
	// A few adversarial-looking outliers so selection rules actually filter.
	for j := range grads[3] {
		grads[3][j] = 40 + float64(j%5)
	}
	for j := range grads[17] {
		grads[17][j] = -35.5
	}

	baselines := newRules(1)
	base := make([]*Result, len(baselines))
	for ri, r := range baselines {
		res, err := r.Aggregate(grads)
		if err != nil {
			t.Fatalf("%s (workers=1): %v", r.Name(), err)
		}
		base[ri] = res
	}

	for _, workers := range []int{2, 7} {
		rules := newRules(workers)
		for ri, r := range rules {
			t.Run(fmt.Sprintf("%s/workers=%d", r.Name(), workers), func(t *testing.T) {
				res, err := r.Aggregate(grads)
				if err != nil {
					t.Fatalf("Aggregate: %v", err)
				}
				if !sameBits(res.Gradient, base[ri].Gradient) {
					t.Errorf("gradient not byte-identical to the workers=1 run")
				}
				if !sameInts(res.Selected, base[ri].Selected) {
					t.Errorf("selection differs: %v vs %v", res.Selected, base[ri].Selected)
				}
			})
		}
	}
}

// Repeated parallel runs of the same rule instance set must agree with
// themselves: no run-to-run scheduling effect may leak into the output.
func TestAggregationParallelRunToRunStable(t *testing.T) {
	grads := honestSet(321, 41, 129, -0.2, 0.9)
	first := make([]*Result, 0)
	for _, r := range newRules(7) {
		res, err := r.Aggregate(grads)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		first = append(first, res)
	}
	for trial := 0; trial < 3; trial++ {
		for ri, r := range newRules(7) {
			res, err := r.Aggregate(grads)
			if err != nil {
				t.Fatalf("%s: %v", r.Name(), err)
			}
			if !sameBits(res.Gradient, first[ri].Gradient) {
				t.Errorf("%s: trial %d diverged from the first parallel run", r.Name(), trial)
			}
		}
	}
}

// The Scores slice feeding Multi-Krum's ranking must itself be
// byte-identical, not just the final argsort winners.
func TestKrumScoresByteIdenticalAcrossWorkers(t *testing.T) {
	grads := honestSet(55, 33, 64, 0, 1)
	base, err := (&MultiKrum{F: 6, M: 1, Workers: 1}).Scores(grads)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7} {
		got, err := (&MultiKrum{F: 6, M: 1, Workers: workers}).Scores(grads)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, base) {
			t.Errorf("workers=%d: scores not byte-identical", workers)
		}
	}
}

// SetWorkers must reach rules wrapped in a FiniteGuard.
func TestSetWorkersRecursesIntoWrappers(t *testing.T) {
	inner := &GeoMed{}
	SetWorkers(Guard(inner), 5)
	if inner.Workers != 5 {
		t.Errorf("SetWorkers(Guard(GeoMed), 5): inner=%d", inner.Workers)
	}
	// Rules without parallel kernels are a no-op, not a panic.
	SetWorkers(ruleWithoutWorkers{}, 3)
}

type ruleWithoutWorkers struct{}

func (ruleWithoutWorkers) Name() string                           { return "static" }
func (ruleWithoutWorkers) Aggregate([][]float64) (*Result, error) { return nil, nil }

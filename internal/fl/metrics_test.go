package fl

import (
	"math"
	"testing"

	"github.com/signguard/signguard/internal/attack"
)

// evaluated returns round r's metrics with a test accuracy.
func evaluated(r int, acc float64) *RoundMetrics {
	return &RoundMetrics{Observation: attack.Observation{Round: r}, Evaluated: true, TestAccuracy: acc}
}

func TestRunResultSummaries(t *testing.T) {
	r := &RunResult{}
	r.Add(evaluated(0, 50))
	r.Add(&RoundMetrics{Observation: attack.Observation{Round: 1}})
	r.Add(evaluated(2, 80))
	r.Add(evaluated(3, 70))
	if r.BestAccuracy != 80 {
		t.Errorf("best = %v", r.BestAccuracy)
	}
	if r.FinalAccuracy != 70 {
		t.Errorf("final = %v", r.FinalAccuracy)
	}
	rounds, accs := r.AccuracyTrace()
	if len(rounds) != 3 || rounds[1] != 2 || accs[2] != 70 {
		t.Errorf("trace = %v / %v", rounds, accs)
	}
}

func TestSelectionRatesAveraging(t *testing.T) {
	r := &RunResult{}
	mask := []bool{false, false, true, true}
	r.Add(&RoundMetrics{Observation: attack.Observe(0, []int{0, 1}, mask)})
	r.Add(&RoundMetrics{Observation: attack.Observe(1, nil, mask)})
	r.Add(&RoundMetrics{Observation: attack.Observe(2, []int{0, 2}, mask)})
	h, m, ok := r.SelectionRates()
	if !ok {
		t.Fatal("no rates")
	}
	// Honest: selected 2 of 2, then 1 of 2 → 3/4. Malicious: 0/2 then 1/2
	// → 1/4. Round 1 reported no selection and counts in neither.
	if math.Abs(h-0.75) > 1e-12 || math.Abs(m-0.25) > 1e-12 {
		t.Errorf("rates H=%v M=%v", h, m)
	}
	empty := &RunResult{}
	if _, _, ok := empty.SelectionRates(); ok {
		t.Error("empty result reported rates")
	}
	blind := &RunResult{}
	blind.Add(&RoundMetrics{Observation: attack.Observe(0, nil, mask)})
	if _, _, ok := blind.SelectionRates(); ok {
		t.Error("a run without a selection reported rates")
	}
}

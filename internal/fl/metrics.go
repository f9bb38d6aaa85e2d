package fl

import "github.com/signguard/signguard/internal/attack"

// RoundMetrics records what happened in one aggregation round. The
// embedded Observation is the round's selection counted against the
// ground-truth Byzantine mask (attack.Observe), and its Round is the round
// index: the value an adaptive adversary reads back is this one.
type RoundMetrics struct {
	attack.Observation

	TrainLoss float64
	// TestAccuracy is valid only when Evaluated is true.
	TestAccuracy float64
	Evaluated    bool

	// WireBytes is the total encoded size of the round's submitted
	// gradients — what the codec stage shipped across the wire.
	WireBytes int64

	// NonFiniteScreened counts submissions the round's ingest screen
	// refused as non-finite.
	NonFiniteScreened int
}

// RunResult aggregates the metrics of a full training run.
type RunResult struct {
	RuleName   string
	AttackName string

	History []RoundMetrics

	// BestAccuracy is the best test accuracy observed at any evaluation
	// point — the quantity the paper's Table I reports.
	BestAccuracy float64
	// FinalAccuracy is the accuracy at the last evaluation.
	FinalAccuracy float64
	// Diverged records that the run ended early because the model left
	// the finite range (a fully successful destructive attack).
	Diverged bool

	// WireBytes is the bytes-shipped total across all rounds: the sum of
	// every round's encoded gradient sizes.
	WireBytes int64

	// NonFiniteScreened is the run total of submissions dropped by the
	// non-finite ingest screen.
	NonFiniteScreened int
}

// Add appends one round's metrics and updates the summaries.
func (r *RunResult) Add(m *RoundMetrics) {
	r.History = append(r.History, *m)
	r.WireBytes += m.WireBytes
	r.NonFiniteScreened += m.NonFiniteScreened
	if m.Evaluated {
		if m.TestAccuracy > r.BestAccuracy {
			r.BestAccuracy = m.TestAccuracy
		}
		r.FinalAccuracy = m.TestAccuracy
	}
}

// SelectionRates returns the average fraction of honest and malicious
// gradients the rule selected across the run — the paper's Table II
// quantities, summed over the rounds of History that carry a selection.
// ok is false when the rule never reported one.
func (r *RunResult) SelectionRates() (honest, malicious float64, ok bool) {
	var sum attack.Observation
	for _, m := range r.History {
		if m.HasSelection {
			sum.SelectedHonest += m.SelectedHonest
			sum.SelectedByz += m.SelectedByz
			sum.TotalHonest += m.TotalHonest
			sum.TotalByz += m.TotalByz
		}
	}
	if sum.TotalHonest == 0 {
		return 0, 0, false
	}
	honest = float64(sum.SelectedHonest) / float64(sum.TotalHonest)
	if sum.TotalByz > 0 {
		malicious = float64(sum.SelectedByz) / float64(sum.TotalByz)
	}
	return honest, malicious, true
}

// AccuracyTrace returns the (round, accuracy) pairs of the evaluated
// rounds — the curves plotted in Fig. 5.
func (r *RunResult) AccuracyTrace() (rounds []int, accs []float64) {
	for _, m := range r.History {
		if m.Evaluated {
			rounds = append(rounds, m.Round)
			accs = append(accs, m.TestAccuracy)
		}
	}
	return rounds, accs
}

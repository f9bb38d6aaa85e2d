package attack

// Observation is the filtering feedback of one completed round, as visible
// to the paper's omniscient adversary: it controls the Byzantine clients,
// so it knows which anonymous arrival positions were its own and can count
// how many survived the defense's selection.
type Observation struct {
	// Round is the zero-based round the observation describes.
	Round int
	// SelectedByz / TotalByz count the cohort's submitted gradients the
	// defense kept vs submitted; SelectedHonest / TotalHonest likewise for
	// the benign clients. Valid only when HasSelection is true.
	SelectedByz, TotalByz       int
	SelectedHonest, TotalHonest int
	// HasSelection is false for coordinate-wise rules (Mean, TrMean, ...)
	// that report no per-client selection.
	HasSelection bool
}

// Observe counts one round's selection against the ground-truth mask of
// malicious arrival positions: the one tally behind the paper's Table II
// rates and the adaptive adversaries' feedback. A nil selected (a rule that
// reports none) leaves HasSelection false; the totals count either way.
func Observe(round int, selected []int, byzMask []bool) Observation {
	o := Observation{Round: round, HasSelection: selected != nil}
	for _, b := range byzMask {
		if b {
			o.TotalByz++
		} else {
			o.TotalHonest++
		}
	}
	for _, i := range selected {
		if i >= 0 && i < len(byzMask) && byzMask[i] {
			o.SelectedByz++
		} else {
			o.SelectedHonest++
		}
	}
	return o
}

// ByzAcceptance returns the fraction of the cohort's gradients the defense
// kept, and whether the round carried selection information at all.
func (o Observation) ByzAcceptance() (float64, bool) {
	if !o.HasSelection || o.TotalByz == 0 {
		return 0, false
	}
	return float64(o.SelectedByz) / float64(o.TotalByz), true
}

// throttle is the one feedback rule of both adaptive adversaries
// (Adaptive-Min-Max's distance scale, Backdoor's boost): it replays the
// filtering history from start, multiplying by 0.7 after a round in which
// the defense kept under half of the cohort and by 1.15 after one in which
// it kept all of it, holding otherwise and on rounds without selection
// information, and clamps to [lo, hi] after every round.
func throttle(history []Observation, start, lo, hi float64) float64 {
	s := start
	for _, o := range history {
		rate, ok := o.ByzAcceptance()
		if !ok {
			continue
		}
		switch {
		case rate < 0.5:
			s *= 0.7
		case rate >= 1:
			s *= 1.15
		}
		s = min(max(s, lo), hi)
	}
	return s
}

// Adversary is the round pipeline's attacker stage: a round-aware strategy
// whose Context carries the round index and the previous rounds' filtering
// history. Stateless attacks are promoted with Promote; adaptive attacks
// implement NeedsHistory()=true, which tells the engine to record the
// per-round feedback (the bookkeeping is skipped otherwise).
type Adversary interface {
	Attack
	// NeedsHistory reports whether Craft consumes Context.Round / History.
	NeedsHistory() bool
}

// promoted adapts a stateless Attack to the Adversary interface.
type promoted struct{ Attack }

func (promoted) NeedsHistory() bool { return false }

// Promote returns a as an Adversary: attacks that already implement the
// interface pass through unchanged, everything else is wrapped in a shim
// that requests no history.
func Promote(a Attack) Adversary {
	if adv, ok := a.(Adversary); ok {
		return adv
	}
	return promoted{a}
}

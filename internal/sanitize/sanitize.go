// Package sanitize is the finiteness screen of the serving layer. A single
// Byzantine client can ship NaN or ±Inf coordinates for free — the cheapest
// real-world poisoning attack — and a value that reaches the aggregation
// kernels poisons norms, pairwise distances and clustering inertia
// downstream. asyncfl.Aggregator.Submit calls Screen once per served
// gradient, whether it came in process or over the `/asyncfl/v2` wire, whose
// codecs decode formats only; the simulation screens its round with a norm
// pass of its own (fl.Simulation.Step). Both refuse a non-finite update
// whole: the defenses' filters assume finite vectors, so there is no repair
// worth feeding them.
package sanitize

import "github.com/signguard/signguard/internal/tensor"

// Policy names what happens to a gradient carrying NaN or ±Inf
// coordinates. Reject is the only disposition: Screen refuses such a
// gradient whatever Policy its caller names, the zero value included.
type Policy int

// Reject refuses the whole update: the submitter is told, nothing enters
// the buffer.
const Reject Policy = 1

// Verdict is the outcome of screening one gradient.
type Verdict int

const (
	// Clean: the gradient was finite.
	Clean Verdict = iota
	// Rejected: the gradient carried non-finite values and is refused.
	Rejected
)

// Screen checks g for non-finite coordinates. It never mutates g; the
// policy argument is kept for callers that name it and has no other
// effect, since Reject is the only policy.
func Screen(g []float64, _ Policy) Verdict {
	if tensor.AllFinite(g) {
		return Clean
	}
	return Rejected
}

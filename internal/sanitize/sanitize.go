// Package sanitize is the hostile-input validation vocabulary of the
// serving and simulation layers: a fast finiteness check over submitted
// gradient vectors. A single Byzantine client can ship NaN or ±Inf
// coordinates for free — the cheapest real-world poisoning attack — and a
// value that reaches the aggregation kernels poisons norms, pairwise
// distances and clustering inertia downstream. Every ingest surface (the
// async serving path, the `/asyncfl/v2` decode path, the synchronous round
// pipeline) screens through this package, and every one of them refuses
// such an update whole: the defenses' filters assume finite vectors, so
// there is no repair worth feeding them.
package sanitize

import "github.com/signguard/signguard/internal/tensor"

// Policy names what happens to a gradient carrying NaN or ±Inf
// coordinates. Reject is the only disposition: every ingest surface refuses
// such a gradient whatever Policy its caller names, the zero value
// included.
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

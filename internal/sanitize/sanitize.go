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

import (
	"fmt"

	"github.com/signguard/signguard/internal/tensor"
)

// Policy selects what happens to a gradient carrying NaN or ±Inf
// coordinates. Reject is the only one; the zero value means "no screen"
// where an ingest surface allows that (the simulation pipeline keeps its
// historical diverged-run semantics).
type Policy int

// Reject refuses the whole update: the submitter is told, nothing enters
// the buffer.
const Reject Policy = 1

// String returns the canonical flag-value spelling of the policy.
func (p Policy) String() string {
	if p == Reject {
		return "reject"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps a policy name to its Policy. The error names the
// offending field or flag verbatim, following the cliutil error contract.
func ParsePolicy(flag, s string) (Policy, error) {
	if s != Reject.String() {
		return 0, fmt.Errorf("%s: unknown policy %q (want reject)", flag, s)
	}
	return Reject, nil
}

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

// Package sanitize is the hostile-input validation vocabulary of the
// serving and simulation layers: a fast finiteness check over submitted
// gradient vectors with a configurable disposition policy. A single
// Byzantine client can ship NaN or ±Inf coordinates for free — the cheapest
// real-world poisoning attack — and a value that reaches the aggregation
// kernels poisons norms, pairwise distances and clustering inertia
// downstream. Every ingest surface (the async serving path, the `/asyncfl/v2`
// decode path, the synchronous round pipeline) screens through this package
// so the policy names, semantics and counters stay consistent across the
// stack.
package sanitize

import (
	"fmt"
	"math"

	"github.com/signguard/signguard/internal/tensor"
)

// Policy selects what happens to a gradient carrying NaN or ±Inf
// coordinates. The zero value is not a valid policy; ingest surfaces choose
// their own default (the serving layer rejects, the simulation pipeline
// keeps its historical diverged-run semantics).
type Policy int

const (
	// Reject refuses the whole update: the submitter is told, nothing
	// enters the buffer. The safe default for untrusted ingest.
	Reject Policy = iota + 1
	// Clamp repairs the vector in place: NaN becomes 0, ±Inf saturates to
	// ±ClampLimit. The update then proceeds as if it had been finite —
	// useful when dropping a whole gradient over one flipped bit is too
	// aggressive.
	Clamp
	// Quarantine accepts the update for accounting but withholds it from
	// aggregation — the operator sees who sends garbage without the
	// garbage touching the model.
	Quarantine
)

// ClampLimit is the saturation magnitude the Clamp policy substitutes for
// ±Inf. It is far inside the range where squared pairwise distances stay
// finite (see fl.gradientHealthy's 1e140 bound).
const ClampLimit = 1e100

// String returns the canonical flag-value spelling of the policy.
func (p Policy) String() string {
	switch p {
	case Reject:
		return "reject"
	case Clamp:
		return "clamp"
	case Quarantine:
		return "quarantine"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Valid reports whether p is one of the declared policies.
func (p Policy) Valid() bool {
	return p == Reject || p == Clamp || p == Quarantine
}

// PolicyNames lists the canonical policy spellings, for flag usage strings.
func PolicyNames() []string {
	return []string{Reject.String(), Clamp.String(), Quarantine.String()}
}

// ParsePolicy maps a flag value to its Policy. The error names the
// offending flag verbatim, following the cliutil error contract.
func ParsePolicy(flag, s string) (Policy, error) {
	switch s {
	case "reject":
		return Reject, nil
	case "clamp":
		return Clamp, nil
	case "quarantine":
		return Quarantine, nil
	default:
		return 0, fmt.Errorf("%s: unknown policy %q (want reject|clamp|quarantine)", flag, s)
	}
}

// Verdict is the outcome of screening one gradient.
type Verdict int

const (
	// Clean: the gradient was finite; no policy applied.
	Clean Verdict = iota
	// Rejected: the gradient carried non-finite values and the policy
	// refuses it.
	Rejected
	// Clamped: non-finite coordinates were repaired in place; the gradient
	// may now be used.
	Clamped
	// Quarantined: the gradient is accepted for accounting but must not be
	// aggregated.
	Quarantined
)

// Screen checks g for non-finite coordinates and applies the policy. Clamp
// mutates g in place (callers on ingest paths screen their own copy, never
// a caller-owned slice). A finite gradient always returns Clean regardless
// of policy.
func Screen(g []float64, p Policy) Verdict {
	if tensor.AllFinite(g) {
		return Clean
	}
	switch p {
	case Clamp:
		clampInPlace(g)
		return Clamped
	case Quarantine:
		return Quarantined
	default:
		return Rejected
	}
}

// clampInPlace repairs non-finite coordinates: NaN → 0 (no directional
// information survives a NaN), ±Inf → ±ClampLimit (the direction is kept,
// the magnitude saturates).
func clampInPlace(g []float64) {
	for i, x := range g {
		switch {
		case math.IsNaN(x):
			g[i] = 0
		case math.IsInf(x, 1):
			g[i] = ClampLimit
		case math.IsInf(x, -1):
			g[i] = -ClampLimit
		}
	}
}

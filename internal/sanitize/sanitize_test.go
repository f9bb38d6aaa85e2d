package sanitize

import (
	"fmt"
	"math"
	"testing"
)

func TestScreenClean(t *testing.T) {
	if v := Screen([]float64{1, -2, 0.5}, Reject); v != Clean {
		t.Fatalf("Screen(finite) = %v, want Clean", v)
	}
}

// TestScreenReject: every non-finite value is refused, and the screen never
// touches the gradient it checks.
func TestScreenReject(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			g := []float64{1, bad, 3}
			if v := Screen(g, Reject); v != Rejected {
				t.Fatalf("Screen = %v, want Rejected", v)
			}
			if math.Float64bits(g[1]) != math.Float64bits(bad) {
				t.Fatalf("Screen mutated the gradient: %v", g)
			}
		})
	}
}

// Unknown (zero) policy behaves as Reject — the fail-safe direction.
func TestScreenZeroPolicyRejects(t *testing.T) {
	if v := Screen([]float64{math.NaN()}, 0); v != Rejected {
		t.Fatalf("Screen with zero policy = %v, want Rejected", v)
	}
}

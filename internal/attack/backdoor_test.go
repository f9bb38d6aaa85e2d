package attack

import (
	"math"
	"testing"

	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/tensor"
)

func obs(selected, total int) Observation {
	return Observation{HasSelection: true, SelectedByz: selected, TotalByz: total}
}

// craftedBoost runs Backdoor.Craft on a fixed context with the given
// history and returns the factor each Byzantine client's own gradient was
// scaled by, failing the test unless every client got the same one.
func craftedBoost(t *testing.T, b *Backdoor, history []Observation) float64 {
	t.Helper()
	ctx := makeContext(31, 4, 2, 5, 0.5, 1)
	ctx.History = history
	out, err := b.Craft(ctx)
	if err != nil {
		t.Fatal(err)
	}
	boost := out[0][0] / ctx.ByzOwn[0][0]
	for i, g := range out {
		if !tensor.Equal(g, tensor.Scale(ctx.ByzOwn[i], boost), 1e-12) {
			t.Fatalf("after %d rounds: gradient %d is not %v × its own", len(history), i, boost)
		}
	}
	return boost
}

// TestBackdoorEffectiveBoostTrajectory walks the crafted boost through
// rejection and recovery: full boost with no history, multiplicative
// shrink while the defense filters the cohort (never below 1), and growth
// back up to the ceiling once the cohort is accepted again.
func TestBackdoorEffectiveBoostTrajectory(t *testing.T) {
	b := NewBackdoor(10)
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*want }
	if got := craftedBoost(t, b, nil); !near(got, 10) {
		t.Errorf("no history: boost %v, want the full λ=10", got)
	}

	rejected := []Observation{obs(0, 2)}
	if got := craftedBoost(t, b, rejected); !near(got, 7) {
		t.Errorf("one rejected round: boost %v, want 7 (10 × 0.7)", got)
	}

	// Nine rejections drive the raw product under 1; the floor holds.
	for i := 0; i < 8; i++ {
		rejected = append(rejected, obs(0, 2))
	}
	if got := craftedBoost(t, b, rejected); !near(got, 1) {
		t.Errorf("sustained rejection: boost %v, want the floor 1", got)
	}

	// Recovery: accepted rounds grow the boost but never past the ceiling.
	recovered := append(rejected, obs(2, 2), obs(2, 2))
	if low := craftedBoost(t, b, recovered); low <= 1 || low >= 10 {
		t.Errorf("two accepted rounds after rejection: boost %v, want strictly between 1 and 10", low)
	}
	for i := 0; i < 40; i++ {
		recovered = append(recovered, obs(2, 2))
	}
	if got := craftedBoost(t, b, recovered); !near(got, 10) {
		t.Errorf("sustained acceptance: boost %v, want the ceiling 10", got)
	}

	// Selection-free rounds (coordinate-wise defenses) leave the boost alone.
	blind := []Observation{{HasSelection: false}, {HasSelection: false}}
	if got := craftedBoost(t, b, blind); !near(got, 10) {
		t.Errorf("selection-free history: boost %v, want the untouched 10", got)
	}

	// A partially-accepted round (rate in [0.5, 1)) holds steady.
	if got := craftedBoost(t, b, []Observation{obs(0, 2), obs(1, 2)}); !near(got, 7) {
		t.Errorf("half-accepted round: boost %v, want the held 7", got)
	}
}

// TestBackdoorCraftBoost: a λ under 1 is lifted to the floor 1, and
// NewBackdoor's non-positive λ selects the default 3.
func TestBackdoorCraftBoost(t *testing.T) {
	for _, tc := range []struct{ boost, want float64 }{{0.5, 1}, {0, 3}} {
		if got := craftedBoost(t, NewBackdoor(tc.boost), nil); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("boost %v: crafted %v × own, want %v", tc.boost, got, tc.want)
		}
	}
}

// TestBackdoorPoisonData checks the deterministic stride poisoning: every
// second example carries the trigger and class 0, the others keep their
// labels, the originals are not mutated, and zero classes is rejected.
func TestBackdoorPoisonData(t *testing.T) {
	b := NewBackdoor(0)
	xs := make([]data.Example, 10)
	for i := range xs {
		xs[i] = data.Example{Features: []float64{0.1, 0.2, 0.3, 0.4, 0.5}, Label: i % 4}
	}
	out, err := b.PoisonData(xs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(xs) {
		t.Fatalf("length changed: %d -> %d", len(xs), len(out))
	}
	poisoned := 0
	for i, e := range out {
		if i%2 == 0 {
			poisoned++
			if e.Label != 0 {
				t.Errorf("poisoned example %d has label %d, want class 0", i, e.Label)
			}
			for j := len(e.Features) - DefaultTriggerLen; j < len(e.Features); j++ {
				if e.Features[j] != 1 {
					t.Errorf("poisoned example %d missing trigger at coord %d", i, j)
				}
			}
			if xs[i].Features[4] != 0.5 {
				t.Errorf("poisoning mutated the original example %d", i)
			}
		} else {
			if e.Label != xs[i].Label {
				t.Errorf("clean example %d relabeled", i)
			}
		}
	}
	if poisoned != 5 {
		t.Errorf("poisoned %d of 10, want 5", poisoned)
	}

	if _, err := b.PoisonData(xs, 0); err == nil {
		t.Error("zero classes accepted")
	}
}

// TestStampTrigger covers both input modalities and the no-mutation
// guarantee.
func TestStampTrigger(t *testing.T) {
	img := data.Example{Features: []float64{0.1, 0.2, 0.3, 0.4}, Label: 3}
	got := StampTrigger(img, 2)
	if got.Features[0] != 0.1 || got.Features[1] != 0.2 || got.Features[2] != 1 || got.Features[3] != 1 {
		t.Errorf("image trigger wrong: %v", got.Features)
	}
	if got.Label != 3 {
		t.Errorf("StampTrigger changed the label to %d", got.Label)
	}
	if img.Features[2] != 0.3 {
		t.Error("StampTrigger mutated the input example")
	}

	txt := data.Example{Tokens: []int{5, 6, 7, 8}}
	got = StampTrigger(txt, 2)
	if got.Tokens[0] != 0 || got.Tokens[1] != 0 || got.Tokens[2] != 7 {
		t.Errorf("text trigger wrong: %v", got.Tokens)
	}
	if txt.Tokens[0] != 5 {
		t.Error("StampTrigger mutated the input tokens")
	}

	// A trigger longer than the input saturates instead of panicking.
	tiny := data.Example{Features: []float64{0.5}}
	if got := StampTrigger(tiny, 9); got.Features[0] != 1 {
		t.Errorf("oversized trigger: %v", got.Features)
	}
}

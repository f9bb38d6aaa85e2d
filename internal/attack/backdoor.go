package attack

import (
	"fmt"

	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/tensor"
)

// DefaultTriggerLen is the number of input positions the backdoor trigger
// occupies: the last pixels of an image input, or the first tokens of a
// text sequence.
const DefaultTriggerLen = 3

// Backdoor is the backdoor / model-replacement adversary (Bagdasaryan et
// al., AISTATS'20; Bhagoji et al., ICML'19). It attacks on two levels:
//
//   - Data poisoning: every second example of each Byzantine client's local
//     data gets the DefaultTriggerLen trigger stamped into the input and its
//     label replaced by class 0, so the cohort's honest-looking local
//     training embeds the trigger → class 0 association.
//   - Model replacement: at submission time every Byzantine gradient is
//     boosted by the factor λ (Boost), the classic scaling that survives
//     averaging over a large cohort.
//
// The adversary is history-aware: its boost is the throttle of the
// defense's filtering feedback from λ within [1, λ], so it falls toward 1
// while the cohort is being rejected (an unboosted poisoned gradient is
// nearly indistinguishable from an honest one) and grows back toward λ once
// the cohort is accepted again. The throttle is a pure function of
// Context.History, so the attack object stays stateless and runs reproduce
// from their seed.
type Backdoor struct {
	// Boost is the model-replacement factor λ applied to the Byzantine
	// gradients (default 3).
	Boost float64
}

var (
	_ Adversary    = (*Backdoor)(nil)
	_ DataPoisoner = (*Backdoor)(nil)
)

// NewBackdoor returns the backdoor adversary with model-replacement boost λ
// (boost <= 0 selects the default 3).
func NewBackdoor(boost float64) *Backdoor {
	if boost <= 0 {
		boost = 3
	}
	return &Backdoor{Boost: boost}
}

// Name implements Attack.
func (*Backdoor) Name() string { return "Backdoor" }

// NeedsHistory implements Adversary: the boost throttle consumes the
// defense's filtering feedback.
func (*Backdoor) NeedsHistory() bool { return true }

// Craft implements Attack: model replacement. Each Byzantine client submits
// its own (poison-trained) gradient scaled by the throttled boost.
func (a *Backdoor) Craft(ctx *Context) ([][]float64, error) {
	if err := ctx.validate(); err != nil {
		return nil, err
	}
	hi := max(a.Boost, 1)
	boost := throttle(ctx.History, hi, 1, hi)
	out := make([][]float64, ctx.NumByz())
	for i, g := range ctx.ByzOwn {
		out[i] = tensor.Scale(g, boost)
	}
	return out, nil
}

// PoisonData implements DataPoisoner: every second example (indices 0, 2,
// 4, ...) gets the trigger stamped and the label set to class 0. No RNG is
// consumed, so poisoning perturbs no seeded stream.
func (*Backdoor) PoisonData(xs []data.Example, classes int) ([]data.Example, error) {
	if classes <= 0 {
		return nil, fmt.Errorf("attack: Backdoor with %d classes", classes)
	}
	out := make([]data.Example, len(xs))
	for i, e := range xs {
		if i%2 != 0 {
			out[i] = e
			continue
		}
		out[i] = StampTrigger(e, DefaultTriggerLen)
		out[i].Label = 0
	}
	return out, nil
}

// StampTrigger returns a copy of e with the backdoor trigger stamped into
// the input: the last triggerLen feature coordinates are set to 1 (a
// corner patch for image inputs), or the first triggerLen tokens are set to
// token 0 for text inputs. The label is left untouched — callers poisoning
// training data relabel explicitly, and ASR evaluation needs the original
// label to exclude examples already of the target class.
func StampTrigger(e data.Example, triggerLen int) data.Example {
	if triggerLen < 1 {
		triggerLen = DefaultTriggerLen
	}
	out := e
	if len(e.Features) > 0 {
		f := append([]float64(nil), e.Features...)
		t := triggerLen
		if t > len(f) {
			t = len(f)
		}
		for j := len(f) - t; j < len(f); j++ {
			f[j] = 1
		}
		out.Features = f
	} else if len(e.Tokens) > 0 {
		tk := append([]int(nil), e.Tokens...)
		t := triggerLen
		if t > len(tk) {
			t = len(tk)
		}
		for j := 0; j < t; j++ {
			tk[j] = 0
		}
		out.Tokens = tk
	}
	return out
}

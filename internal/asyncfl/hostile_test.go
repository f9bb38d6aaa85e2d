package asyncfl

import (
	"fmt"
	"math"
	"testing"

	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/tensor"
)

func hostileAggregator(t *testing.T, dim int) *Aggregator {
	t.Helper()
	agg, err := New(Config{
		InitialParams: make([]float64, dim),
		K:             2,
		Alpha:         0.5,
		LR:            0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

func nanGrad(dim, at int) []float64 {
	g := make([]float64, dim)
	for i := range g {
		g[i] = 0.1
	}
	g[at] = math.NaN()
	return g
}

// A NaN or ±Inf update never enters the buffer, the counters increment,
// the model stays finite, and the caller's slice stays exactly as submitted
// (the transport may reuse or log it).
func TestSubmitRejectsNonFiniteByDefault(t *testing.T) {
	agg := hostileAggregator(t, 4)
	g := []float64{1, math.Inf(1), math.NaN(), -2}
	res, err := agg.Submit(Update{Client: "evil", Grad: g})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || !res.NonFinite {
		t.Fatalf("NaN update: Accepted=%v NonFinite=%v, want refused+flagged", res.Accepted, res.NonFinite)
	}
	if g[0] != 1 || !math.IsInf(g[1], 1) || !math.IsNaN(g[2]) || g[3] != -2 {
		t.Errorf("Submit mutated the caller's gradient slice: %v", g)
	}
	st := agg.Stats()
	if st.NonFiniteRejects != 1 || st.Rejects != 1 {
		t.Errorf("NonFiniteRejects = %d, Rejects = %d, want 1 and 1", st.NonFiniteRejects, st.Rejects)
	}
	if st.Buffered != 0 || st.Arrivals != 0 {
		t.Errorf("hostile update reached the buffer: %+v", st)
	}
	if _, params, _ := agg.Model(); !tensor.AllFinite(params) {
		t.Error("model went non-finite")
	}
}

// The identity codec decodes in place, so the gradient a transport hands to
// Submit is the payload's own array. The buffer must hold a copy: whatever
// the transport does with its buffer afterwards cannot reach a later step.
func TestSubmitBufferDoesNotAliasDecodedPayload(t *testing.T) {
	agg := hostileAggregator(t, 4)
	payload := codec.Encoded{Codec: codec.Identity, Dim: 4, Dense: []float64{1, 1, 1, 1}}
	g, err := codec.IdentityCodec{}.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Submit(Update{Client: "a", Grad: g}); err != nil {
		t.Fatal(err)
	}
	for i := range payload.Dense {
		payload.Dense[i] = 1e6 // the transport reuses its buffer
	}
	if _, err := agg.Submit(Update{Client: "b", Grad: []float64{1, 1, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	version, params, _ := agg.Model()
	if version != 1 {
		t.Fatalf("version %d after K=2 arrivals, want 1", version)
	}
	for i, p := range params {
		if p != -0.1 { // one LR=0.1 step along the mean of two all-ones gradients
			t.Errorf("param %d = %v, want -0.1: the buffered update saw the overwritten payload", i, p)
		}
	}
}

// Under sustained NaN bombardment interleaved with honest traffic, steps
// keep happening on the honest updates alone and the model stays finite —
// the serving-layer half of the crash-chain regression.
func TestHostileTrafficDoesNotWedgeSteps(t *testing.T) {
	agg := hostileAggregator(t, 8)
	honest := make([]float64, 8)
	for i := range honest {
		honest[i] = 0.01 * float64(i+1)
	}
	for i := 0; i < 20; i++ {
		if _, err := agg.Submit(Update{Client: "evil", Grad: nanGrad(8, i%8)}); err != nil {
			t.Fatal(err)
		}
		if _, err := agg.Submit(Update{Client: "honest", Grad: honest}); err != nil {
			t.Fatal(err)
		}
	}
	st := agg.Stats()
	if st.NonFiniteRejects != 20 {
		t.Errorf("NonFiniteRejects = %d, want 20", st.NonFiniteRejects)
	}
	if st.Steps == 0 {
		t.Error("no aggregation steps despite 20 honest arrivals")
	}
	if _, params, _ := agg.Model(); !tensor.AllFinite(params) {
		t.Error("model went non-finite under hostile traffic")
	}
}

// A buffer of finite gradients at the float64 limit passes the ingest
// screen but overflows the merge sum to +Inf; the step must be skipped
// rather than fold Inf into the model.
func TestStepSkipsNonFiniteMerge(t *testing.T) {
	agg := hostileAggregator(t, 2)
	huge := []float64{math.MaxFloat64, math.MaxFloat64}
	for i := 0; i < 2; i++ {
		if res, err := agg.Submit(Update{Client: "c", Grad: huge}); err != nil || !res.Accepted {
			t.Fatalf("finite update %d: res=%+v err=%v", i, res, err)
		}
	}
	if st := agg.Stats(); st.Steps != 0 || st.RuleErrors != 1 {
		t.Errorf("stats = %+v, want the overflowing step skipped as one rule error", st)
	}
	if _, params, _ := agg.Model(); !tensor.AllFinite(params) {
		t.Error("model went non-finite")
	}
}

// A gradient whose coordinates are all 1e308 is finite, so it passes the
// ingest screen, but its norm overflows and SignGuard-Sim's cosine feature
// is Inf/Inf = NaN. The sign filter leaves that gradient out rather than
// erroring the step: one such member in every round must not cost a step.
func TestSignGuardSimOverflowingGradientSteps(t *testing.T) {
	const dim, k, rounds = 16, 6, 5
	rule, err := defense.Builtin().Build("SignGuard-Sim", defense.Params{N: k, F: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(dim, k)
	cfg.Deterministic = true
	cfg.Rule = rule
	agg, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	huge := make([]float64, dim)
	for j := range huge {
		huge[j] = 1e308
	}
	rng := tensor.NewRNG(3)
	for r := 0; r < rounds; r++ {
		for c := 0; c < k; c++ {
			g := huge
			if c < k-1 {
				g = tensor.RandNormal(rng, dim, 1, 0.5)
			}
			u := Update{Client: fmt.Sprintf("c%d", c), Seq: int64(r*k + c), Grad: g}
			if res, err := agg.Submit(u); err != nil || !res.Accepted {
				t.Fatalf("round %d client %d: res=%+v err=%v", r, c, res, err)
			}
		}
	}
	if st := agg.Stats(); st.Steps != rounds || st.RuleErrors != 0 {
		t.Errorf("Steps = %d, RuleErrors = %d, want %d and 0", st.Steps, st.RuleErrors, rounds)
	}
	if _, params, _ := agg.Model(); !tensor.AllFinite(params) {
		t.Error("model went non-finite")
	}
}

// Deterministic mode: a rejected hostile update must still consume its
// schedule position, or one NaN would wedge every later position forever.
// The screen runs on entry, so the refusal is the submitter's answer at
// once, ahead of its turn too: it is never parked as Held. A NaN that
// decides the last position of its block steps it, and its own refusal
// reports the step.
func TestDeterministicRejectConsumesSchedulePosition(t *testing.T) {
	honest := []float64{1, 2, 3, 4}
	for _, tc := range []struct {
		name      string
		evilSeq   int64
		evilFirst bool
	}{
		{"NaN at seq 0, then seq 1", 0, true},
		{"NaN at seq 1 before seq 0", 1, true},
		{"NaN at seq 1 after seq 0", 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			agg, err := New(Config{
				InitialParams: make([]float64, 4),
				K:             2,
				LR:            0.1,
				Deterministic: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			evil := func() SubmitResult {
				res, err := agg.Submit(Update{Client: "evil", Seq: tc.evilSeq, Grad: nanGrad(4, 1)})
				if err != nil || !res.NonFinite || res.Held || res.Accepted {
					t.Fatalf("NaN update at position %d: res=%+v err=%v, want refused at once", tc.evilSeq, res, err)
				}
				return res
			}
			if tc.evilFirst {
				evil()
			}
			res, err := agg.Submit(Update{Client: "honest", Seq: 1 - tc.evilSeq, Grad: honest})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatalf("position %d did not apply beside the hostile position %d: %+v", 1-tc.evilSeq, tc.evilSeq, res)
			}
			if !tc.evilFirst {
				if res := evil(); !res.Stepped || res.Version != 1 {
					t.Fatalf("NaN closing the block: %+v, want Stepped at version 1", res)
				}
			}
			if st := agg.Stats(); st.NonFiniteRejects != 1 || st.Steps != 1 {
				t.Errorf("NonFiniteRejects = %d, Steps = %d, want 1 and 1", st.NonFiniteRejects, st.Steps)
			}
		})
	}
}

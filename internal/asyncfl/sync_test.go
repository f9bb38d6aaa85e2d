package asyncfl

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/core"
	"github.com/signguard/signguard/internal/nn"
	"github.com/signguard/signguard/internal/tensor"
)

// --- Flush: the barrier a synchronous wire needs ---------------------------

func TestFlushStepsPartialBufferAndResetsCadence(t *testing.T) {
	cfg := testConfig(1, 3)
	cfg.TargetSteps = 2
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Flush() {
		t.Fatal("Flush on an empty buffer stepped")
	}
	submit := func(client string, version int) SubmitResult {
		t.Helper()
		res, err := a.Submit(Update{Client: client, Version: version, Grad: []float64{1}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	submit("a", 0)
	submit("b", 0)
	if !a.Flush() {
		t.Fatal("Flush over two buffered updates did not step")
	}
	if h := a.History(); len(h) != 1 || h[0].Buffer != 2 {
		t.Fatalf("history after flush = %+v, want one 2-update step", h)
	}
	// The flush reset the K-cadence: the two pre-flush arrivals must not
	// count toward the next step.
	if submit("a", 1).Stepped || submit("b", 1).Stepped {
		t.Fatal("stepped before K fresh arrivals after a flush")
	}
	if !submit("c", 1).Stepped {
		t.Fatal("third fresh arrival after a flush did not step")
	}
	if a.Flush() {
		t.Fatal("Flush on a Done aggregator stepped")
	}
	if st := a.Stats(); st.Steps != 2 || !st.Done {
		t.Fatalf("stats = %+v, want 2 steps and Done", st)
	}
}

// --- fresh-buffer rule -----------------------------------------------------

func paramDigest(p []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFreshBufferAppliesRuleAggregate pins both halves of the fresh-buffer
// rule for the two selecting rules whose own aggregate is more than the mean
// of what they selected (SignGuard clips to the median norm, Bulyan takes a
// trimmed mean). All-fresh buffer: every merge weight is exactly 1, so the
// step applies rule.Aggregate(...).Gradient bit for bit. One stale entry:
// the staleness-weighted re-merge of the selection, whose model digest was
// recorded at the commit before the fresh-buffer rule existed.
func TestFreshBufferAppliesRuleAggregate(t *testing.T) {
	const dim, n, version, lr = 8, 8, 2, 0.1
	rng := tensor.NewRNG(5)
	grads := make([][]float64, n)
	for i := range grads {
		grads[i] = tensor.RandNormal(rng, dim, 1, 0.1)
	}
	tensor.ScaleInPlace(grads[6], -5)
	tensor.ScaleInPlace(grads[7], 30)

	for _, tc := range []struct {
		name        string
		rule        func() aggregate.Rule
		staleDigest string
	}{
		{"SignGuard", func() aggregate.Rule { return core.NewPlain(3) }, "aa0d826572a6eb30f6ee926cf3335e08933048a42b5746275e3ed0b58d64962d"},
		{"Bulyan", func() aggregate.Rule { return aggregate.NewBulyan(1) }, "aa0d826572a6eb30f6ee926cf3335e08933048a42b5746275e3ed0b58d64962d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			step := func(staleAt int) []float64 {
				cfg := testConfig(dim, n)
				cfg.LR = lr
				cfg.Rule = tc.rule()
				a, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				a.version = version
				for i, g := range grads {
					v := version
					if i == staleAt {
						v = 0
					}
					if _, err := a.Submit(Update{Client: fmt.Sprintf("c%d", i), Version: v, Grad: g}); err != nil {
						t.Fatal(err)
					}
				}
				if h := a.History(); len(h) != 1 || h[0].Kept >= n {
					t.Fatalf("history = %+v, want one filtering step", h)
				}
				_, params, _ := a.Model()
				return params
			}

			res, err := tc.rule().Aggregate(grads)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, dim)
			if err := nn.NewSGD(lr, 0, 0).Step(want, res.Gradient); err != nil {
				t.Fatal(err)
			}
			fresh := step(-1)
			if paramDigest(fresh) != paramDigest(want) {
				t.Errorf("fresh buffer: model %v, want the rule's own aggregate applied %v", fresh, want)
			}
			stale := step(2)
			if got := paramDigest(stale); got != tc.staleDigest {
				t.Errorf("stale buffer: digest %s, want %s (recorded before the fresh-buffer rule)", got, tc.staleDigest)
			}
			if paramDigest(stale) == paramDigest(fresh) {
				t.Error("the stale entry did not change the merge: the test buffer does not exercise staleness weighting")
			}
		})
	}
}

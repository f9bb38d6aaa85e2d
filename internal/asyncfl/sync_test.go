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

// --- Flush: the round barrier -----------------------------------------------

// TestDeterministicBlockStepsOnDecidedPositions: in deterministic mode K
// counts decided positions, so a K = 3 block whose middle position the
// screen refuses steps on its third position, over the two it let through.
func TestDeterministicBlockStepsOnDecidedPositions(t *testing.T) {
	cfg := testConfig(4, 3)
	cfg.Deterministic = true
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := []float64{1, 1, 1, 1}
	for seq, g := range [][]float64{clean, nanGrad(4, 1), clean} {
		res, err := a.Submit(Update{Client: fmt.Sprintf("c%d", seq), Seq: int64(seq), Grad: g})
		if err != nil {
			t.Fatal(err)
		}
		if last := seq == 2; res.Stepped != last {
			t.Fatalf("position %d: res = %+v, want Stepped = %v", seq, res, last)
		}
	}
	if h := a.History(); len(h) != 1 || h[0].Buffer != 2 {
		t.Fatalf("history = %+v, want one step over the two clean updates", h)
	}
}

// TestDeterministicFlushDropsMissingSlots: Flush ends a block with a missing
// position by dropping that position's slot from the cohort. The block steps
// on what it holds, an update the dropped slot had parked for a later block
// is discarded, the slot's later positions decide themselves, and a submit
// to one of them is refused. Flush of another round, of a Done aggregator
// and outside deterministic mode steps nothing.
func TestDeterministicFlushDropsMissingSlots(t *testing.T) {
	free, err := New(testConfig(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := free.Submit(Update{Client: "c", Grad: []float64{1}}); err != nil || free.Flush(0) {
		t.Fatalf("Flush outside deterministic mode stepped (submit err %v)", err)
	}
	cfg := testConfig(1, 3)
	cfg.Deterministic = true
	cfg.TargetSteps = 2
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(seq int64) SubmitResult {
		t.Helper()
		res, err := a.Submit(Update{Client: fmt.Sprintf("s%d", seq%3), Version: int(seq / 3), Seq: seq, Grad: []float64{1}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	submit(0)
	submit(2) // held behind slot 1's missing position 1
	submit(4) // slot 1 parks in block 1 before missing block 0
	if a.Flush(1) {
		t.Fatal("a flush naming a round not yet reached stepped")
	}
	if !a.Flush(0) {
		t.Fatal("Flush of a block missing one position did not step")
	}
	if st := a.Stats(); st.Steps != 1 || st.DroppedSlots != 1 || st.Arrivals != 2 {
		t.Fatalf("stats after flush = %+v, want one step over two arrivals and one dropped slot", st)
	}
	if _, err := a.Submit(Update{Client: "s1", Version: 2, Seq: 7, Grad: []float64{1}}); err == nil {
		t.Fatal("a submit to a dropped slot was accepted")
	}
	submit(3)
	if res := submit(5); !res.Stepped {
		t.Fatalf("block 1 did not close over the dropped slot's position: %+v", res)
	}
	if h := a.History(); len(h) != 2 || h[1].Buffer != 2 {
		t.Fatalf("history = %+v, want block 1 to step over slots 0 and 2 only", h)
	}
	if a.Flush(2) {
		t.Fatal("Flush on a Done aggregator stepped")
	}
}

// TestDeterministicSlotBelongsToItsFirstClient: a slot belongs to the first
// client that claims one of its positions. When member 1 submits at member
// 0's position, or has it refused at the wire, nothing is decided there, so
// member 0's own update still counts in its round.
func TestDeterministicSlotBelongsToItsFirstClient(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.Deterministic = true
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(client string, seq int64) (SubmitResult, error) {
		return a.Submit(Update{Client: client, Version: int(seq / 2), Seq: seq, Grad: []float64{1}})
	}
	for seq, member := range []string{"m0", "m1"} {
		if _, err := submit(member, int64(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := submit("m1", 2); err == nil {
		t.Fatal("member 1 submitted at member 0's position")
	}
	a.Refuse("m1", 2)
	if res, err := submit("m0", 2); err != nil || !res.Accepted {
		t.Fatalf("member 0 at its own position after member 1's claims: res=%+v err=%v", res, err)
	}
	if res, err := submit("m1", 3); err != nil || !res.Stepped {
		t.Fatalf("member 1 at its own position: res=%+v err=%v, want the round to step", res, err)
	}
	if h := a.History(); len(h) != 2 || h[1].Buffer != 2 {
		t.Fatalf("history = %+v, want round 1 to step over both members", h)
	}
}

// TestDeterministicBlockClosedWithoutStep: a block whose every position is
// refused closes without a step. Its last arrival does not report Stepped,
// the skip is counted, and Flush of the round it belonged to, now that the
// schedule has moved on to the next block, drops nobody.
func TestDeterministicBlockClosedWithoutStep(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Deterministic = true
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seq := range 2 {
		res, err := a.Submit(Update{Client: fmt.Sprintf("c%d", seq), Seq: int64(seq), Grad: nanGrad(2, 0)})
		if err != nil || res.Stepped {
			t.Fatalf("refused position %d: res=%+v err=%v, want no step", seq, res, err)
		}
	}
	if st := a.Stats(); st.Steps != 0 || st.Version != 0 || st.EmptySelects != 1 {
		t.Fatalf("stats = %+v, want no step and one empty selection", st)
	}
	if a.Flush(0) || a.Stats().DroppedSlots != 0 {
		t.Fatal("Flush of a round whose block already closed dropped the next block's members")
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

package transport

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/asyncfl"
	"github.com/signguard/signguard/internal/core"
	"github.com/signguard/signguard/internal/tensor"
)

// quadraticGradient returns a GradientFunc descending a convex quadratic
// with optimum at target: grad = params - target (plus optional noise).
func quadraticGradient(target []float64, noise float64, seed int64) GradientFunc {
	rng := tensor.NewRNG(seed)
	return func(round int, params []float64) ([]float64, error) {
		g := make([]float64, len(params))
		for j := range g {
			g[j] = params[j] - target[j] + noise*rng.NormFloat64()
		}
		return g, nil
	}
}

// byzantineGradient sends a hugely scaled reverse gradient.
func byzantineGradient(target []float64, seed int64) GradientFunc {
	honest := quadraticGradient(target, 0.01, seed)
	return func(round int, params []float64) ([]float64, error) {
		g, err := honest(round, params)
		if err != nil {
			return nil, err
		}
		tensor.ScaleInPlace(g, -40)
		return g, nil
	}
}

// lockstepTimeout is the round timeout of the test cohorts. It passes on
// the test clock only, which moves when a test says a round is stuck.
const lockstepTimeout = time.Minute

// lockstep is a lock-step cohort served over /asyncfl/v2 in process: a
// deterministic aggregator with K = cohort (no staleness discount, no
// session expiry — the test's asyncfl.Config supplies the rule, optimizer,
// dimension and TargetSteps) behind the handler, and a round timer reading
// a clock the test drives.
type lockstep struct {
	agg    *asyncfl.Aggregator
	srv    *httptest.Server
	cohort int

	clock   chan time.Time
	now     time.Time
	timer   chan error    // the round timer's result
	stopped chan struct{} // closed once the round timer has returned

	// Requests answered, per path, and rounds the timer ended.
	updates, heartbeats, timeouts atomic.Int64
}

func newLockstep(t *testing.T, acfg asyncfl.Config, cohort int) *lockstep {
	t.Helper()
	acfg.K, acfg.Alpha, acfg.SessionTTL, acfg.Deterministic = cohort, 0, -1, true
	agg, err := asyncfl.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	l := &lockstep{
		agg: agg, cohort: cohort,
		clock: make(chan time.Time), timer: make(chan error, 1), stopped: make(chan struct{}),
	}
	h := NewAsyncHandler(agg)
	l.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		switch r.URL.Path {
		case AsyncPathUpdate:
			l.updates.Add(1)
		case AsyncPathHeartbeat:
			l.heartbeats.Add(1)
		}
	}))
	t.Cleanup(l.srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() { cancel(); <-l.stopped })
	go func() {
		defer close(l.stopped)
		l.timer <- runRoundTimer(ctx, agg, lockstepTimeout, l.clock, func(string, ...any) { l.timeouts.Add(1) })
	}()
	return l
}

// member runs cohort member slot until training is done or it fails.
func (l *lockstep) member(ctx context.Context, slot int, compute GradientFunc) error {
	_, err := RunAsyncClient(ctx, AsyncClientConfig{
		Addr: l.srv.URL, ID: fmt.Sprintf("c%d", slot), Compute: compute, Cohort: l.cohort, Slot: slot,
	})
	return err
}

// expire advances the test clock one round timeout at a time until the
// round timer has ended the stuck round, or the run. Each time is sent
// twice: the second send returns only once the timer has finished its check
// of the first.
func (l *lockstep) expire() {
	for v := l.agg.Stats().Version; l.agg.Stats().Version == v; {
		l.now = l.now.Add(lockstepTimeout)
		for range 2 {
			select {
			case l.clock <- l.now:
			case <-l.stopped:
				return
			}
		}
	}
}

// waitFor polls until cond holds; the deadline only bounds a broken test.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// runSync runs a lock-step cohort to completion, one member per compute
// function, all started at once: the schedule position, not the order of
// arrival, decides the order of every buffer, so a run is reproducible bit
// for bit. drive, when not nil, runs on the test goroutine meanwhile — it
// expires the rounds the test knows to be stuck. runSync returns the cohort,
// the round timer's result and each member's error. When the run fails, the
// members still waiting for a round are cancelled.
func runSync(t *testing.T, acfg asyncfl.Config, computes []GradientFunc, drive func(*lockstep)) (*lockstep, error, []error) {
	t.Helper()
	l := newLockstep(t, acfg, len(computes))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make([]error, len(computes))
	var wg sync.WaitGroup
	for i, compute := range computes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.member(ctx, i, compute)
		}()
	}
	if drive != nil {
		drive(l)
	}
	var err error
	select {
	case err = <-l.timer:
	case <-time.After(time.Minute):
		t.Fatal("lock-step run did not finish")
	}
	if err != nil {
		cancel()
	}
	wg.Wait()
	return l, err, errs
}

// quadraticCohort is nHonest honest clients followed by nByz scaled-reverse
// attackers on the same quadratic.
func quadraticCohort(target []float64, nHonest, nByz int) []GradientFunc {
	var computes []GradientFunc
	for i := 0; i < nHonest; i++ {
		computes = append(computes, quadraticGradient(target, 0.05, int64(i)))
	}
	for i := 0; i < nByz; i++ {
		computes = append(computes, byzantineGradient(target, int64(100+i)))
	}
	return computes
}

// runCluster trains a cohort to completion and returns the final parameters,
// failing the test on any server or client error.
func runCluster(t *testing.T, rule aggregate.Rule, nHonest, nByz, rounds int, target []float64) []float64 {
	t.Helper()
	l, err, clientErrs := runSync(t, asyncfl.Config{
		InitialParams: make([]float64, len(target)), Rule: rule,
		LR: 0.2, Momentum: 0.5, TargetSteps: int64(rounds),
	}, quadraticCohort(target, nHonest, nByz), nil)
	if err != nil {
		t.Fatalf("round timer: %v", err)
	}
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	_, params, _ := l.agg.Model()
	return params
}

func TestClusterConvergesClean(t *testing.T) {
	target := []float64{1, -2, 3, 0.5}
	final := runCluster(t, aggregate.NewMean(), 6, 0, 60, target)
	d, _ := tensor.Distance(final, target)
	if d > 0.2 {
		t.Errorf("distance to optimum %v after clean training", d)
	}
}

func TestClusterSignGuardFiltersByzantine(t *testing.T) {
	target := []float64{2, 2, -1, 0, 1, -1}
	final := runCluster(t, core.NewPlain(1), 8, 2, 60, target)
	d, _ := tensor.Distance(final, target)
	if d > 0.5 {
		t.Errorf("SignGuard cluster ended %v from optimum", d)
	}
	// The same cluster with a plain mean is wrecked by the scaled attack.
	wrecked := runCluster(t, aggregate.NewMean(), 8, 2, 60, target)
	dw, _ := tensor.Distance(wrecked, target)
	if dw < d*2 {
		t.Errorf("plain mean (%v) should be far worse than SignGuard (%v)", dw, d)
	}
}

// TestLockstepMatchesParentDigests pins the synchronous path bit for bit:
// the final-parameter SHA-256 of a 6 + 2 cohort after 25 rounds, per rule,
// recorded at the last commit where a gob round server still ran its own
// aggregate-and-apply loop over sequentially registered connections. The
// rounds now run over /asyncfl/v2 with all eight members started at once;
// their schedule positions put every buffer in the old connection order.
func TestLockstepMatchesParentDigests(t *testing.T) {
	const dim, rounds = 12, 25
	target := make([]float64, dim)
	for j := range target {
		target[j] = float64(j%5) - 2
	}
	for _, tc := range []struct {
		name   string
		rule   aggregate.Rule
		digest string
	}{
		{"Mean", aggregate.NewMean(), "cd5fe09672c2800407d2ab87f84e443fba9c71d3462c2cc3bf3fe6a4b234b41a"},
		{"TrMean", aggregate.NewTrimmedMean(2), "cf25437c11fc8f3b297d96f50364c540956f78f4cb0f5b9d281dac6f0e7a30b2"},
		{"Multi-Krum", aggregate.NewMultiKrum(2, 6), "357d74cb8e74330b1f37884bf469231114524e2d73ea8512336c365e98cdd69f"},
		{"DnC", aggregate.NewDnC(2, 1), "87c7aefccec806d9041538f10904be9c8f898e1e4c816200740992a35fa10dda"},
		{"Bulyan", aggregate.NewBulyan(1), "1296bb94c11475d845b882bd0c617a47ea34e40546fee1899fabb925b9d587e8"},
		{"SignGuard", core.NewPlain(1), "b21b0c5f8260156e67d3c27f81d8f9a343fdc6e894363d0ef2d7fa809153e2b8"},
		{"SignGuard-Sim", core.NewSim(1), "73edf45cafa7df2fb37d023f1b819ee2bb9192030edc721b34eed3a24790f514"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err, _ := runSync(t, asyncfl.Config{
				InitialParams: make([]float64, dim), Rule: tc.rule,
				LR: 0.2, Momentum: 0.5, WeightDecay: 1e-3, TargetSteps: rounds,
			}, quadraticCohort(target, 6, 2), nil)
			if err != nil {
				t.Fatal(err)
			}
			_, params, _ := l.agg.Model()
			h := sha256.New()
			var b [8]byte
			for _, v := range params {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.digest {
				t.Errorf("final-parameter digest %s, want %s", got, tc.digest)
			}
		})
	}
}

// TestServerRejectsWrongDimension: a cohort whose only member sends a
// wrong-dimension gradient is refused at the wire, its round times out with
// nobody left, and the run fails.
func TestServerRejectsWrongDimension(t *testing.T) {
	_, err, _ := runSync(t, asyncfl.Config{
		InitialParams: []float64{0, 0}, Rule: aggregate.NewMean(), LR: 0.1, TargetSteps: 3,
	}, []GradientFunc{func(int, []float64) ([]float64, error) {
		return []float64{1, 2, 3}, nil // wrong dimension
	}}, func(l *lockstep) {
		waitFor(t, "the wrong-dimension upload", func() bool { return l.updates.Load() == 1 })
		l.expire()
	})
	if err == nil {
		t.Error("run completed on a cohort whose only client sent a wrong-dimension gradient")
	}
}

// TestServerFailsRoundClosedWithoutStep: when the screen refuses every
// upload of a round, the round closes without a step and no member can go
// on. The round timer fails the run at its next check, not a timeout later,
// and names the empty selection.
func TestServerFailsRoundClosedWithoutStep(t *testing.T) {
	nan := func(int, []float64) ([]float64, error) { return []float64{math.NaN(), 0}, nil }
	_, err, _ := runSync(t, asyncfl.Config{
		InitialParams: []float64{0, 0}, Rule: aggregate.NewMean(), LR: 0.1, TargetSteps: 3,
	}, []GradientFunc{nan, nan}, func(l *lockstep) {
		waitFor(t, "both refused uploads", func() bool { return l.updates.Load() == 2 })
		l.clock <- l.now // one check, with no time passed
	})
	if err == nil || !strings.Contains(err.Error(), "1 empty selections") {
		t.Fatalf("round timer: %v, want a failure naming one empty selection", err)
	}
}

// TestServerHistory runs a clean lock-step cohort and checks what the wire
// promises about the aggregator behind it: one step per round over the whole
// cohort, never a stale update, a drop, a refusal or an expired session, and
// each member returns the final model.
func TestServerHistory(t *testing.T) {
	l := newLockstep(t, asyncfl.Config{
		InitialParams: []float64{0}, Rule: aggregate.NewMean(), LR: 0.5, TargetSteps: 5,
	}, 2)
	finals := make([][]float64, 2)
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			finals[i], err = RunAsyncClient(context.Background(), AsyncClientConfig{
				Addr: l.srv.URL, ID: fmt.Sprintf("c%d", i), Cohort: 2, Slot: i,
				Compute: quadraticGradient([]float64{1}, 0, int64(i)),
			})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if err := <-l.timer; err != nil {
		t.Fatalf("round timer: %v", err)
	}
	hist := l.agg.History()
	if len(hist) != 5 {
		t.Fatalf("history has %d steps, want 5", len(hist))
	}
	for _, h := range hist {
		if h.Buffer != 2 || h.MeanStaleness != 0 {
			t.Errorf("step %+v, want a fresh 2-update buffer", h)
		}
	}
	if st := l.agg.Stats(); st.Drops != 0 || st.Expired != 0 || st.Rejects != 0 || st.DroppedSlots != 0 {
		t.Errorf("lock-step run dropped, expired or rejected something: %+v", st)
	}
	_, final, _ := l.agg.Model()
	for i, got := range finals {
		if !slices.Equal(got, final) {
			t.Errorf("member %d returned %v, want the final model %v", i, got, final)
		}
	}
}

// TestServerDropsMisbehavingConnections is the one-client-DoS regression: a
// wrong-dimension upload in the second round and a member going silent in
// the third used to end the run for everybody. Each now costs only its own
// place in the cohort: the round timer ends exactly those two rounds, and
// the rest complete on what is left of the cohort.
func TestServerDropsMisbehavingConnections(t *testing.T) {
	target := []float64{1, -1, 2}
	honest := func(seed int64) GradientFunc { return quadraticGradient(target, 0.01, seed) }
	misbehave := func(atRound int, bad func() ([]float64, error)) GradientFunc {
		good := honest(int64(atRound))
		return func(round int, params []float64) ([]float64, error) {
			if round == atRound {
				return bad()
			}
			return good(round, params)
		}
	}
	release := make(chan struct{})
	l, err, clientErrs := runSync(t, asyncfl.Config{
		InitialParams: make([]float64, len(target)), Rule: aggregate.NewMean(), LR: 0.2, TargetSteps: 6,
	}, []GradientFunc{
		honest(10),
		misbehave(1, func() ([]float64, error) { return []float64{1, 2}, nil }),
		honest(11),
		misbehave(2, func() ([]float64, error) { <-release; return nil, errors.New("silent member woke after the run") }),
	}, func(l *lockstep) {
		// Round 0's four uploads and round 1's four, one of them refused.
		waitFor(t, "round 1's uploads", func() bool { return l.updates.Load() == 8 })
		l.expire()
		// Round 2: members 0 and 2; member 3 is silent.
		waitFor(t, "round 2's uploads", func() bool { return l.updates.Load() == 10 })
		l.expire()
		select {
		case <-l.agg.Done():
		case <-time.After(time.Minute):
			t.Error("the cohort's survivors did not finish")
		}
		close(release)
	})
	if err != nil {
		t.Fatalf("round timer: %v", err)
	}
	var buffers []int
	for _, h := range l.agg.History() {
		buffers = append(buffers, h.Buffer)
	}
	if fmt.Sprint(buffers) != "[4 3 2 2 2 2]" {
		t.Errorf("per-round buffers %v, want [4 3 2 2 2 2]", buffers)
	}
	if n := l.timeouts.Load(); n != 2 {
		t.Errorf("the round timer ended %d rounds, want 2", n)
	}
	if clientErrs[0] != nil || clientErrs[2] != nil {
		t.Errorf("well-behaved clients failed: %v, %v", clientErrs[0], clientErrs[2])
	}
	if clientErrs[1] == nil || clientErrs[3] == nil {
		t.Errorf("dropped clients saw no error: %v, %v", clientErrs[1], clientErrs[3])
	}
}

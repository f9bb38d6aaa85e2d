package transport

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
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

// newSyncServer builds the pair every gob test drives: an aggregator in
// lock-step form (K = cohort, no staleness discount, no session expiry —
// acfg supplies the rule, optimizer, dimension and TargetSteps) and the gob
// server in front of it on a loopback port.
func newSyncServer(t *testing.T, acfg asyncfl.Config, scfg ServerConfig) (*Server, *asyncfl.Aggregator) {
	t.Helper()
	acfg.K, acfg.Alpha, acfg.SessionTTL = scfg.Clients, 0, -1
	agg, err := asyncfl.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Addr = "127.0.0.1:0"
	srv, err := NewServer(scfg, agg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, agg
}

// runSync runs a lock-step cluster to completion: one RunClient per compute
// function, registered one at a time (each waits for the server's
// registration log line) so connection order — the aggregator's arrival
// order — is the slice order and a run is reproducible bit for bit. It
// returns the aggregator, Serve's error and each client's error.
func runSync(t *testing.T, acfg asyncfl.Config, timeout time.Duration, computes []GradientFunc) (*asyncfl.Aggregator, error, []error) {
	t.Helper()
	registered := make(chan struct{}, len(computes))
	srv, agg := newSyncServer(t, acfg, ServerConfig{
		Clients: len(computes), RoundTimeout: timeout,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "registered (") {
				registered <- struct{}{}
			}
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx) }()

	clientErrs := make([]error, len(computes))
	var wg sync.WaitGroup
	for i, compute := range computes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, clientErrs[i] = RunClient(ctx, ClientConfig{
				Addr: srv.Addr().String(), ID: fmt.Sprintf("c%d", i), Compute: compute,
			})
		}()
		<-registered
	}
	err := <-serveErr
	wg.Wait()
	return agg, err, clientErrs
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
	agg, err, clientErrs := runSync(t, asyncfl.Config{
		InitialParams: make([]float64, len(target)), Rule: rule,
		LR: 0.2, Momentum: 0.5, TargetSteps: int64(rounds),
	}, 10*time.Second, quadraticCohort(target, nHonest, nByz))
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	_, params, _ := agg.Model()
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

// TestGobMatchesParentDigests pins the synchronous path bit for bit: the
// final-parameter SHA-256 of a sequentially registered 6 + 2 cohort after 25
// rounds, per rule, recorded at the last commit where the gob server still
// ran its own aggregate-and-apply loop. Moving the loop into
// asyncfl.Aggregator (K = cohort, Flush, fresh-buffer rule) must not move
// one of them.
func TestGobMatchesParentDigests(t *testing.T) {
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
			agg, err, _ := runSync(t, asyncfl.Config{
				InitialParams: make([]float64, dim), Rule: tc.rule,
				LR: 0.2, Momentum: 0.5, WeightDecay: 1e-3, TargetSteps: rounds,
			}, 10*time.Second, quadraticCohort(target, 6, 2))
			if err != nil {
				t.Fatal(err)
			}
			_, params, _ := agg.Model()
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

func TestServerConfigValidation(t *testing.T) {
	agg, err := asyncfl.New(asyncfl.Config{InitialParams: []float64{0}, K: 1, LR: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Clients: 0}, agg); err == nil {
		t.Error("zero clients accepted")
	}
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Clients: 1}, nil); err == nil {
		t.Error("nil aggregator accepted")
	}
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Clients: 1}, agg)
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	srv.Close()
}

func TestClientRequiresCompute(t *testing.T) {
	if _, err := RunClient(context.Background(), ClientConfig{Addr: "127.0.0.1:1"}); err == nil {
		t.Error("accepted nil Compute")
	}
}

func TestClientDialFailure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := RunClient(ctx, ClientConfig{
		Addr: "127.0.0.1:1", ID: "x",
		Compute:     func(int, []float64) ([]float64, error) { return nil, nil },
		DialTimeout: 500 * time.Millisecond,
	})
	if err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestServerRejectsWrongDimension(t *testing.T) {
	_, serveErr, _ := runSync(t, asyncfl.Config{
		InitialParams: []float64{0, 0}, Rule: aggregate.NewMean(), LR: 0.1, TargetSteps: 3,
	}, 5*time.Second, []GradientFunc{func(int, []float64) ([]float64, error) {
		return []float64{1, 2, 3}, nil // wrong dimension
	}})
	if serveErr == nil {
		t.Error("server completed on a cohort whose only client sent a wrong-dimension gradient")
	}
}

// TestServerHistory runs a clean lock-step cohort and checks what the wire
// promises about the aggregator behind it: one step per round over the whole
// cohort, never a stale update, a drop or an expired session, and exactly
// one final broadcast.
func TestServerHistory(t *testing.T) {
	var finals int
	srv, agg := newSyncServer(t, asyncfl.Config{
		InitialParams: []float64{0}, Rule: aggregate.NewMean(), LR: 0.5, TargetSteps: 5,
	}, ServerConfig{Clients: 2, RoundTimeout: 5 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := srv.Serve(ctx); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := RunClient(ctx, ClientConfig{
				Addr: srv.Addr().String(), ID: fmt.Sprintf("c%d", i),
				Compute: quadraticGradient([]float64{1}, 0, int64(i)),
				OnModel: func(u ModelUpdate) {
					if i == 0 && u.Done {
						finals++
					}
				},
			})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	hist := agg.History()
	if len(hist) != 5 {
		t.Fatalf("history has %d steps, want 5", len(hist))
	}
	for _, h := range hist {
		if h.Buffer != 2 || h.MaxStaleness != 0 {
			t.Errorf("step %+v, want a fresh 2-update buffer", h)
		}
	}
	if st := agg.Stats(); st.Drops != 0 || st.Expired != 0 || st.Rejects != 0 {
		t.Errorf("lock-step run dropped, expired or rejected something: %+v", st)
	}
	if finals != 1 {
		t.Errorf("client saw %d final models", finals)
	}
}

// TestServerDropsMisbehavingConnections is the one-client-DoS regression: a
// wrong-dimension upload in the second round and a client going silent in
// the third used to end the run for everybody. Each now costs only its own
// connection; the rounds complete on what is left of the cohort.
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
	agg, err, clientErrs := runSync(t, asyncfl.Config{
		InitialParams: make([]float64, len(target)), Rule: aggregate.NewMean(), LR: 0.2, TargetSteps: 6,
	}, 300*time.Millisecond, []GradientFunc{
		honest(10),
		misbehave(1, func() ([]float64, error) { return []float64{1, 2}, nil }),
		honest(11),
		misbehave(2, func() ([]float64, error) { time.Sleep(time.Second); return nil, context.DeadlineExceeded }),
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	var buffers []int
	for _, h := range agg.History() {
		buffers = append(buffers, h.Buffer)
	}
	if fmt.Sprint(buffers) != "[4 3 2 2 2 2]" {
		t.Errorf("per-round buffers %v, want [4 3 2 2 2 2]", buffers)
	}
	if clientErrs[0] != nil || clientErrs[2] != nil {
		t.Errorf("well-behaved clients failed: %v, %v", clientErrs[0], clientErrs[2])
	}
	if clientErrs[1] == nil || clientErrs[3] == nil {
		t.Errorf("dropped clients saw no error: %v, %v", clientErrs[1], clientErrs[3])
	}
}

package transport

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/asyncfl"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/core"
	"github.com/signguard/signguard/internal/tensor"
)

// TestHostileNaNEndToEnd is the deterministic regression for non-finite
// gradients at every door a gradient can come through: five honest clients
// and one hostile client run 20 lock-step rounds over each wire, under an
// undefended mean, a Multi-Krum that selects the whole buffer (what
// `flserver -rule multikrum` builds at -byz 0) and SignGuard with the KMeans
// sign filter — the exact defense of the original crash chain (NaN features
// -> NaN inertia in every KMeans restart -> nil cluster result -> nil
// deref), FiniteGuard-wrapped as the defense registry wraps it. Every
// hostile submit must be refused and counted, every round must still step on
// the honest five, and the model must stay finite. The gob rows under Mean
// and Multi-Krum ended with a NaN model while the gob server still
// aggregated whatever it decoded.
func TestHostileNaNEndToEnd(t *testing.T) {
	const dim, honest, rounds = 16, 5, 20
	target := make([]float64, dim)
	for j := range target {
		target[j] = 1
	}
	kmeans := core.DefaultConfig()
	kmeans.Algo = core.KMeansAlgo
	rules := []struct {
		name string
		new  func(n int) aggregate.Rule
	}{
		{"Mean", func(int) aggregate.Rule { return aggregate.NewMean() }},
		{"Multi-Krum", func(n int) aggregate.Rule { return aggregate.NewMultiKrum(0, n) }},
		{"SignGuard-KMeans", func(int) aggregate.Rule {
			rule, err := core.New(kmeans)
			if err != nil {
				panic(err) // the default config with another clustering algorithm is valid
			}
			return aggregate.Guard(rule)
		}},
	}
	wires := []struct {
		name string
		run  func(t *testing.T, rule func(n int) aggregate.Rule) *asyncfl.Aggregator
	}{
		// gob carries float64 bits verbatim: the hostile client uploads a
		// gradient with a single NaN coordinate every round.
		{"gob", func(t *testing.T, rule func(n int) aggregate.Rule) *asyncfl.Aggregator {
			computes := quadraticCohort(target, honest, 0)
			clean := quadraticGradient(target, 0.05, 99)
			computes = append(computes, func(round int, params []float64) ([]float64, error) {
				g, err := clean(round, params)
				g[3] = math.NaN()
				return g, err
			})
			agg, err, _ := runSync(t, asyncfl.Config{
				InitialParams: make([]float64, dim), Rule: rule(honest + 1), LR: 0.1, TargetSteps: rounds,
			}, 10*time.Second, computes)
			if err != nil {
				t.Fatalf("serve: %v", err)
			}
			return agg
		}},
		// JSON cannot represent NaN — a literal token is a malformed body,
		// refused at the parse layer — so the representable attack is a
		// valid qsgd payload whose finite Scale amplifies to +Inf on decode.
		{"http", func(t *testing.T, rule func(n int) aggregate.Rule) *asyncfl.Aggregator {
			agg, err := asyncfl.New(asyncfl.Config{
				InitialParams: make([]float64, dim), K: honest, Rule: rule(honest), LR: 0.1,
				TargetSteps: rounds, SessionTTL: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(NewAsyncHandler(agg))
			defer srv.Close()
			resp, err := http.Post(srv.URL+AsyncPathUpdate, "application/json",
				strings.NewReader(`{"Client":"evil","Grad":[NaN,1,2]}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("literal-NaN body: HTTP %d, want 400", resp.StatusCode)
			}

			ctx := context.Background()
			evil := &AsyncClient{Base: srv.URL, ID: "evil"}
			hostile := codec.Encoded{Codec: codec.QSGD, Dim: dim, Scale: 1e308, Levels: 1, Q: make([]int8, dim)}
			for i := range hostile.Q {
				hostile.Q[i] = 127
			}
			computes := quadraticCohort(target, honest, 0)
			for round := 0; round < rounds; round++ {
				if _, err := evil.SubmitEncoded(ctx, round, 0, hostile); err == nil || !strings.Contains(err.Error(), "400") {
					t.Fatalf("amplifying qsgd payload: %v, want HTTP 400", err)
				}
				for i, compute := range computes {
					c := &AsyncClient{Base: srv.URL, ID: fmt.Sprintf("h%d", i)}
					model, err := c.Model(ctx)
					if err != nil {
						t.Fatal(err)
					}
					grad, _ := compute(round, model.Params)
					if _, err := c.Submit(ctx, model.Version, 0, grad); err != nil {
						t.Fatal(err)
					}
				}
			}
			return agg
		}},
	}
	for _, w := range wires {
		for _, r := range rules {
			t.Run(w.name+"/"+r.name, func(t *testing.T) {
				agg := w.run(t, r.new)
				st := agg.Stats()
				if st.Steps != rounds || !st.Done {
					t.Errorf("%d steps (done=%v), want %d: hostile traffic wedged aggregation", st.Steps, st.Done, rounds)
				}
				if st.NonFiniteRejects != rounds {
					t.Errorf("NonFiniteRejects = %d, want %d (one per hostile submit)", st.NonFiniteRejects, rounds)
				}
				_, params, _ := agg.Model()
				if !tensor.AllFinite(params) {
					t.Fatalf("model went non-finite under hostile traffic: %v", params)
				}
				if d, _ := tensor.Distance(params, target); d > 2 {
					t.Errorf("model ended %v from the optimum: honest traffic did not aggregate", d)
				}
			})
		}
	}
}

package defense

import (
	"errors"
	"math"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/tensor"
)

// hostileBuffers enumerates the non-finite corruption shapes a Byzantine
// client can ship: one NaN coordinate, a fully-NaN vector, ±Inf spikes, a
// majority-hostile cohort, and an all-hostile buffer.
func hostileBuffers(n, d int) map[string][][]float64 {
	fresh := func(seed int64) [][]float64 {
		rng := tensor.NewRNG(seed)
		grads := make([][]float64, n)
		for i := range grads {
			grads[i] = tensor.RandNormal(rng, d, 0, 1)
		}
		return grads
	}
	bufs := map[string][][]float64{}

	b := fresh(1)
	b[0][d/2] = math.NaN()
	bufs["one-nan-coord"] = b

	b = fresh(2)
	for j := range b[1] {
		b[1][j] = math.NaN()
	}
	bufs["full-nan-vector"] = b

	b = fresh(3)
	b[2][0] = math.Inf(1)
	b[3][d-1] = math.Inf(-1)
	bufs["inf-spikes"] = b

	b = fresh(4)
	for i := 0; i < n/2+1; i++ {
		for j := 0; j < d; j += 3 {
			b[i][j] = math.NaN()
		}
	}
	bufs["majority-sparse-nan"] = b

	b = fresh(5)
	for i := range b {
		for j := range b[i] {
			b[i][j] = math.Inf(1 - 2*(j%2))
		}
	}
	bufs["all-inf"] = b

	return bufs
}

// The acceptance-criteria property: every registered defense, fed a hostile
// buffer, either returns an error or a fully finite aggregate — never a
// panic, never NaN folded into the model.
func TestEveryDefenseFiniteOrErrorOnHostileBuffers(t *testing.T) {
	const n, d = 12, 48
	reg := Builtin()
	for _, name := range reg.Names() {
		for shape, grads := range hostileBuffers(n, d) {
			rule, err := reg.Build(name, Params{N: n, F: 2, Seed: 7})
			if err != nil {
				t.Fatalf("%s: build: %v", name, err)
			}
			res, err := func() (res *aggregate.Result, err error) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s on %s: panicked: %v", name, shape, r)
					}
				}()
				return rule.Aggregate(grads)
			}()
			if err != nil {
				continue // refusing the buffer satisfies the property
			}
			if res == nil {
				t.Fatalf("%s on %s: nil result with nil error", name, shape)
			}
			if !tensor.AllFinite(res.Gradient) {
				t.Errorf("%s on %s: non-finite aggregate", name, shape)
			}
		}
	}
}

// The guard is load-bearing, not decorative: a rule that emits NaN must be
// converted into ErrNonFiniteAggregate by the registry wrapper.
func TestRegistryGuardsRuleOutput(t *testing.T) {
	r := Builtin()
	if err := r.Register(Spec{Name: "evil", Build: func(Params) (aggregate.Rule, error) {
		return nanRule{}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	rule, err := r.Build("evil", Params{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rule.Aggregate([][]float64{{1, 2}})
	if !errors.Is(err, aggregate.ErrNonFiniteAggregate) {
		t.Fatalf("guard let a NaN aggregate through: err=%v", err)
	}
}

type nanRule struct{}

func (nanRule) Name() string { return "evil" }
func (nanRule) Aggregate(grads [][]float64) (*aggregate.Result, error) {
	return &aggregate.Result{Gradient: []float64{math.NaN()}}, nil
}

package defense_test

import (
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/conformance"
	"github.com/signguard/signguard/internal/defense"
)

// TestDefenseConformance runs the registry-wide contract over every builtin
// defense: byte-identical aggregation for any worker count, finite-or-error
// behavior on hostile buffers, no input kept past the call, and
// CLI-compatible hyperparameter declarations with undeclared names
// rejected.
func TestDefenseConformance(t *testing.T) {
	reg := defense.Builtin()
	for _, name := range reg.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if err := conformance.CheckDefenseWorkerDeterminism(reg, name, 11); err != nil {
				t.Errorf("worker determinism: %v", err)
			}
			if err := conformance.CheckDefenseHostileInputs(reg, name, 13); err != nil {
				t.Errorf("hostile inputs: %v", err)
			}
			if err := conformance.CheckDefenseInputRetention(reg, name, 23); err != nil {
				t.Errorf("input retention: %v", err)
			}
			if err := conformance.CheckDefenseHyperDeclaration(reg, name); err != nil {
				t.Errorf("hyper declaration: %v", err)
			}
		})
	}
}

// workerLeaky violates the determinism contract on purpose: its aggregate
// depends on the worker count.
type workerLeaky struct{ workers int }

func (r *workerLeaky) Name() string     { return "Leaky" }
func (r *workerLeaky) SetWorkers(n int) { r.workers = n }

func (r *workerLeaky) Aggregate(grads [][]float64) (*aggregate.Result, error) {
	g := make([]float64, len(grads[0]))
	g[0] = float64(r.workers)
	return &aggregate.Result{Gradient: g}, nil
}

// TestConformanceCatchesWorkerNondeterminism is the test of the test: a
// rule whose output leaks its worker count must fail the determinism check.
func TestConformanceCatchesWorkerNondeterminism(t *testing.T) {
	reg := defense.Builtin()
	if err := reg.Register(defense.Spec{Name: "Leaky", Build: func(defense.Params) (aggregate.Rule, error) {
		return &workerLeaky{}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	err := conformance.CheckDefenseWorkerDeterminism(reg, "Leaky", 11)
	if err == nil {
		t.Fatal("worker-dependent rule passed the determinism check")
	}
	if !strings.Contains(err.Error(), "workers") {
		t.Errorf("unhelpful determinism error: %v", err)
	}
}

// keepsPrevious violates the ownership rule on purpose: it averages the
// current cohort with the first vector of the previous one, which it keeps
// by reference instead of copying.
type keepsPrevious struct{ prev []float64 }

func (r *keepsPrevious) Name() string { return "KeepsPrevious" }

func (r *keepsPrevious) Aggregate(grads [][]float64) (*aggregate.Result, error) {
	res, err := aggregate.NewMean().Aggregate(grads)
	if err != nil {
		return nil, err
	}
	for j := range r.prev {
		res.Gradient[j] = (res.Gradient[j] + r.prev[j]) / 2
	}
	r.prev = grads[0]
	return res, nil
}

// TestConformanceCatchesInputRetention is the test of the test: a rule that
// reads last round's vector through a kept reference must fail the
// retention check.
func TestConformanceCatchesInputRetention(t *testing.T) {
	reg := defense.Builtin()
	if err := reg.Register(defense.Spec{Name: "KeepsPrevious", Build: func(defense.Params) (aggregate.Rule, error) {
		return &keepsPrevious{}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if err := conformance.CheckDefenseInputRetention(reg, "KeepsPrevious", 23); err == nil {
		t.Fatal("a rule that keeps its input passed the retention check")
	}
}

// TestConformanceCatchesHyperViolations is the test of the test: a declared
// hyperparameter name that cannot survive the CLI's key=value,key=value
// syntax must fail the declaration check.
func TestConformanceCatchesHyperViolations(t *testing.T) {
	mean := func(defense.Params) (aggregate.Rule, error) { return aggregate.NewMean(), nil }
	for _, bad := range []string{"no=equals", "no,commas", ""} {
		reg := defense.Builtin()
		if err := reg.Register(defense.Spec{Name: "Bad", Hyper: []string{bad}, Build: mean}); err != nil {
			t.Fatal(err)
		}
		if err := conformance.CheckDefenseHyperDeclaration(reg, "Bad"); err == nil {
			t.Errorf("hyper name %q passed the declaration check", bad)
		}
	}
}

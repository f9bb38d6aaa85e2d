package defense_test

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/conformance"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/tensor"
)

// TestDefenseConformance runs the registry-wide contract over every builtin
// defense: byte-identical aggregation for any worker count, finite-or-error
// behavior on hostile buffers, a selection that is nil or strictly
// ascending within the cohort, and no input kept past the call.
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
			if err := conformance.CheckDefenseSelection(reg, name, 13); err != nil {
				t.Errorf("selection: %v", err)
			}
			if err := conformance.CheckDefenseInputRetention(reg, name, 23); err != nil {
				t.Errorf("input retention: %v", err)
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

// unsorted violates the selection contract on purpose: it reports the
// Mean over every input but lists the first two positions in reverse.
type unsorted struct{}

func (unsorted) Name() string { return "Unsorted" }

func (unsorted) Aggregate(grads [][]float64) (*aggregate.Result, error) {
	res, err := aggregate.NewMean().Aggregate(grads)
	if err != nil {
		return nil, err
	}
	res.Selected = []int{1, 0}
	return res, nil
}

// TestConformanceCatchesBadSelection is the test of the test: a selection
// out of ascending order must fail the selection check, and so must an
// index outside the cohort.
func TestConformanceCatchesBadSelection(t *testing.T) {
	reg := defense.Builtin()
	if err := reg.Register(defense.Spec{Name: "Unsorted", Build: func(defense.Params) (aggregate.Rule, error) {
		return unsorted{}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	err := conformance.CheckDefenseSelection(reg, "Unsorted", 13)
	if err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Errorf("selection [1 0] passed the check: %v", err)
	}
	for _, bad := range [][]int{{0, 0}, {-1}, {conformance.CohortN}} {
		if conformance.SelectionShape(bad, conformance.CohortN) == nil {
			t.Errorf("selection %v passed the shape check", bad)
		}
	}
	for _, ok := range [][]int{nil, {}, {0, 3, conformance.CohortN - 1}} {
		if err := conformance.SelectionShape(ok, conformance.CohortN); err != nil {
			t.Errorf("selection %v refused: %v", ok, err)
		}
	}
}

// FuzzDefenseAggregate drives arbitrary bit patterns — hostile floats
// included — through every registered defense and asserts the same
// finite-or-error property TestEveryDefenseFiniteOrErrorOnHostileBuffers
// pins, and the selection shape CheckDefenseSelection pins.
func FuzzDefenseAggregate(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	seedBuf := make([]byte, 6*4*8)
	f.Add(seedBuf, uint8(7))
	nan := make([]byte, 8*4*8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	f.Add(nan, uint8(2))
	names := defense.Builtin().Names()
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		const d = 4
		vals := len(data) / 8
		n := vals / d
		if n < 1 {
			return
		}
		if n > 24 {
			n = 24 // bound the O(n²·d) rules per exec
		}
		grads := make([][]float64, n)
		for i := 0; i < n; i++ {
			row := make([]float64, d)
			for j := 0; j < d; j++ {
				off := (i*d + j) * 8
				row[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8]))
			}
			grads[i] = row
		}
		name := names[int(which)%len(names)]
		rule, err := defense.Builtin().Build(name, defense.Params{N: n, F: n / 4, Seed: 11})
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		res, err := rule.Aggregate(grads)
		if err != nil {
			return
		}
		if res == nil {
			t.Fatalf("%s: nil result with nil error", name)
		}
		if !tensor.AllFinite(res.Gradient) {
			t.Fatalf("%s: non-finite aggregate from fuzz buffer", name)
		}
		if err := conformance.SelectionShape(res.Selected, n); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
}

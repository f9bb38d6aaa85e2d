package asyncfl

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/sanitize"
)

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own account.
var raceEnabled bool

// TestSubmitNeverRetainsGrad pins the retention contract a transport's
// request scratch relies on: a deterministic-mode update parked by Submit
// is a copy, so overwriting the caller's slice with NaN once Submit has
// returned leaves the model bit-identical to a run that never touched it.
func TestSubmitNeverRetainsGrad(t *testing.T) {
	sched := buildSchedule(2, 6, 2, 9)
	run := func(poison bool) []float64 {
		cfg := testConfig(6, 2)
		cfg.Deterministic = true
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		parked := sched[1]
		parked.Grad = slices.Clone(parked.Grad)
		if res, err := a.Submit(parked); err != nil || !res.Held {
			t.Fatalf("park seq 1: res=%+v err=%v", res, err)
		}
		if poison {
			for j := range parked.Grad {
				parked.Grad[j] = math.NaN()
			}
		}
		mustSubmit(t, a, sched[0])
		if st := a.Stats(); st.Steps != 1 || st.Arrivals != 2 {
			t.Fatalf("poisoned=%v: %+v, want both updates to arrive and step", poison, st)
		}
		_, params, _ := a.Model()
		return params
	}
	want, got := run(false), run(true)
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("coordinate %d: %v after poisoning the parked caller slice, %v without", j, got[j], want[j])
		}
	}
}

// TestWarmSubmitAllocatesNothing: once the slot free list and the queues
// have grown, a Submit that does not step allocates nothing — the copy of
// the gradient lands in a recycled slot.
func TestWarmSubmitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	a, err := New(testConfig(1024, math.MaxInt))
	if err != nil {
		t.Fatal(err)
	}
	grad := make([]float64, 1024)
	clients := []string{"a", "b", "c"}
	n := 0
	submit := func() {
		res, err := a.Submit(Update{Client: clients[n%len(clients)], Grad: grad})
		if err != nil || !res.Accepted || res.Stepped {
			t.Fatalf("submit %d: res=%+v err=%v", n, res, err)
		}
		n++
	}
	for range 3 * (DefaultQueueCap + 1) { // fill every queue: drop-oldest from here on
		submit()
	}
	if allocs := testing.AllocsPerRun(100, submit); allocs != 0 {
		t.Errorf("a warm non-stepping Submit makes %.1f allocations, want 0", allocs)
	}
}

// stubRule answers every step with a fixed result or error.
type stubRule struct {
	res *aggregate.Result
	err error
}

func (stubRule) Name() string { return "stub" }

func (r stubRule) Aggregate([][]float64) (*aggregate.Result, error) { return r.res, r.err }

// TestSlotsComeBackOnEveryPath drives each way an update's life can end
// over and over at a dimension where one slot is 128 KiB: if any path kept
// its slot off the free list, every repetition would allocate a fresh one.
func TestSlotsComeBackOnEveryPath(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const dim = 1 << 14
	clean, hostile := make([]float64, dim), make([]float64, dim)
	hostile[7] = math.NaN()
	fixed := make([]float64, dim)
	inf := make([]float64, dim)
	inf[0] = math.Inf(1)
	cases := []struct {
		name string
		cfg  func(*Config, *time.Time)
		op   func(t *testing.T, a *Aggregator, i int, clock *time.Time)
	}{
		{"screen reject", nil, func(t *testing.T, a *Aggregator, _ int, _ *time.Time) {
			mustSubmit(t, a, Update{Client: "c", Grad: hostile})
		}},
		{"screen quarantine", func(c *Config, _ *time.Time) { c.NonFinite = sanitize.Quarantine }, func(t *testing.T, a *Aggregator, _ int, _ *time.Time) {
			mustSubmit(t, a, Update{Client: "c", Grad: hostile})
		}},
		{"refused as future", nil, func(t *testing.T, a *Aggregator, _ int, _ *time.Time) {
			mustSubmit(t, a, Update{Client: "c", Version: 1, Grad: clean})
		}},
		{"drop-oldest", func(c *Config, _ *time.Time) { c.QueueCap = 1 }, func(t *testing.T, a *Aggregator, _ int, _ *time.Time) {
			mustSubmit(t, a, Update{Client: "c", Grad: clean})
		}},
		{"session purge", func(c *Config, clock *time.Time) {
			c.SessionTTL = time.Minute
			c.Now = func() time.Time { return *clock }
		}, func(t *testing.T, a *Aggregator, i int, clock *time.Time) {
			*clock = clock.Add(2 * time.Minute) // the other client's queue expires
			mustSubmit(t, a, Update{Client: fmt.Sprint(i % 2), Grad: clean})
		}},
		{"parked update purged", func(c *Config, clock *time.Time) {
			c.Deterministic = true
			c.QueueCap = 1
			c.SessionTTL = time.Minute
			c.Now = func() time.Time { return *clock }
		}, func(t *testing.T, a *Aggregator, i int, clock *time.Time) {
			mustSubmit(t, a, Update{Client: "ghost", Seq: int64(2*i + 1), Grad: clean})
			*clock = clock.Add(2 * time.Minute)
			mustSubmit(t, a, Update{Client: "live", Seq: int64(2 * i), Grad: clean})
		}},
		{"step", func(c *Config, _ *time.Time) {
			c.K = 1
			c.Rule = stubRule{res: &aggregate.Result{Gradient: fixed}}
		}, func(t *testing.T, a *Aggregator, i int, _ *time.Time) {
			mustSubmit(t, a, Update{Client: "c", Version: i, Grad: clean})
		}},
		{"step, rule error", func(c *Config, _ *time.Time) {
			c.K = 1
			c.Rule = stubRule{err: errors.New("refused")}
		}, func(t *testing.T, a *Aggregator, _ int, _ *time.Time) {
			mustSubmit(t, a, Update{Client: "c", Grad: clean})
		}},
		{"step, empty select", func(c *Config, _ *time.Time) {
			c.K = 1
			c.Rule = stubRule{res: &aggregate.Result{Gradient: fixed, Selected: []int{}}}
		}, func(t *testing.T, a *Aggregator, _ int, _ *time.Time) {
			mustSubmit(t, a, Update{Client: "c", Grad: clean})
		}},
		{"step, non-finite merge", func(c *Config, _ *time.Time) {
			c.K = 1
			c.Rule = stubRule{res: &aggregate.Result{Gradient: inf}}
		}, func(t *testing.T, a *Aggregator, _ int, _ *time.Time) {
			mustSubmit(t, a, Update{Client: "c", Grad: clean})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := time.Unix(0, 0)
			cfg := testConfig(dim, math.MaxInt)
			if tc.cfg != nil {
				tc.cfg(&cfg, &clock)
			}
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const warm, reps = 4, 50
			for i := 0; i < warm; i++ {
				tc.op(t, a, i, &clock)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := warm; i < warm+reps; i++ {
				tc.op(t, a, i, &clock)
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / reps; per >= 8*dim/4 {
				t.Errorf("%d bytes per repetition: a %d-byte slot is not coming back", per, 8*dim)
			}
		})
	}
}

func mustSubmit(t *testing.T, a *Aggregator, u Update) {
	t.Helper()
	if _, err := a.Submit(u); err != nil {
		t.Fatal(err)
	}
}

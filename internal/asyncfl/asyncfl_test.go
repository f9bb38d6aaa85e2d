package asyncfl

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/nn"
	"github.com/signguard/signguard/internal/tensor"
)

// --- aggregator core -------------------------------------------------------

func testConfig(dim, k int) Config {
	return Config{
		InitialParams: make([]float64, dim),
		K:             k,
		Alpha:         0.5,
		LR:            0.1,
		SessionTTL:    -1, // no expiry unless the test wants it
	}
}

func TestStepEveryKArrivals(t *testing.T) {
	cfg := testConfig(4, 3)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := []float64{1, 1, 1, 1}
	for i := 0; i < 2; i++ {
		res, err := a.Submit(Update{Client: fmt.Sprintf("c%d", i), Version: 0, Grad: g})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted || res.Stepped {
			t.Fatalf("arrival %d: res = %+v, want accepted without step", i, res)
		}
	}
	res, err := a.Submit(Update{Client: "c2", Version: 0, Grad: g})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stepped || res.Version != 1 {
		t.Fatalf("third arrival: res = %+v, want Stepped at version 1", res)
	}
	st := a.Stats()
	if st.Steps != 1 || st.Buffered != 0 {
		t.Fatalf("stats = %+v, want 1 step, empty buffer", st)
	}
	hist := a.History()
	if len(hist) != 1 || hist[0].Buffer != 3 || hist[0].Kept != 3 {
		t.Fatalf("history = %+v", hist)
	}
}

func TestAlphaZeroStepIsPlainBufferedMean(t *testing.T) {
	dim := 8
	cfg := testConfig(dim, 4)
	cfg.Alpha = 0
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	grads := make([][]float64, 4)
	for i := range grads {
		grads[i] = tensor.RandNormal(rng, dim, 0, 1)
		if _, err := a.Submit(Update{Client: fmt.Sprintf("c%d", i), Version: 0, Grad: grads[i]}); err != nil {
			t.Fatal(err)
		}
	}
	// The buffered mean accumulates in arrival order and scales by the
	// inverse of the unit weights' sum, so equality is bitwise.
	mean := make([]float64, dim)
	for _, g := range grads {
		for j, v := range g {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] *= 1.0 / 4.0
	}
	want := make([]float64, dim)
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	if err := opt.Step(want, mean); err != nil {
		t.Fatal(err)
	}
	_, got, _ := a.Model()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("coordinate %d: got %v want %v", j, got[j], want[j])
		}
	}
}

func TestDropOldestAndBackpressure(t *testing.T) {
	cfg := testConfig(1, 100) // K high: no steps interfere
	cfg.QueueCap = 2
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := a.Submit(Update{Client: "c", Version: 0, Grad: []float64{1}})
	if r1.Dropped || !r1.Accepted {
		t.Fatalf("first submit: %+v", r1)
	}
	r2, _ := a.Submit(Update{Client: "c", Version: 0, Grad: []float64{2}})
	if !r2.Backpressure {
		t.Fatalf("queue at cap should signal backpressure: %+v", r2)
	}
	r3, _ := a.Submit(Update{Client: "c", Version: 0, Grad: []float64{3}})
	if !r3.Dropped || !r3.Backpressure || !r3.Accepted {
		t.Fatalf("overflow should drop-oldest and stay accepted: %+v", r3)
	}
	st := a.Stats()
	if st.Drops != 1 || st.Buffered != 2 {
		t.Fatalf("stats = %+v, want 1 drop, 2 buffered", st)
	}
}

func TestRejectsFutureVersioned(t *testing.T) {
	a, err := New(testConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Submit(Update{Client: "c", Version: 5, Grad: []float64{1}})
	if err != nil || res.Accepted {
		t.Fatalf("future-versioned update must be refused: %+v, %v", res, err)
	}
	if st := a.Stats(); st.Rejects != 1 || st.Buffered != 0 {
		t.Fatalf("stats = %+v, want 1 reject and nothing buffered", st)
	}
}

// TestStaleUpdateDiscountedNotRefused: there is no staleness cut-off. An
// update computed against a model many versions old is accepted and merged
// at its discounted weight w(s), never refused.
func TestStaleUpdateDiscountedNotRefused(t *testing.T) {
	a, err := New(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for v := range 50 {
		if res, err := a.Submit(Update{Client: "fresh", Version: v, Grad: []float64{1}}); err != nil || !res.Stepped {
			t.Fatalf("fresh update at version %d: res=%+v err=%v", v, res, err)
		}
	}
	res, err := a.Submit(Update{Client: "slow", Version: 0, Grad: []float64{1}})
	if err != nil || !res.Accepted || !res.Stepped || res.Staleness != 50 {
		t.Fatalf("50-versions-stale update: res=%+v err=%v, want accepted at staleness 50", res, err)
	}
	if st := a.Stats(); st.Rejects != 0 {
		t.Fatalf("stats = %+v, want no rejects", st)
	}
}

func TestGradientDimMismatch(t *testing.T) {
	a, err := New(testConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(Update{Client: "c", Grad: []float64{1}}); err == nil {
		t.Fatal("dim mismatch must error")
	}
}

func TestTargetStepsDone(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.TargetSteps = 2
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := a.Submit(Update{Client: "c", Version: i, Grad: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-a.Done():
	default:
		t.Fatal("Done channel not closed after TargetSteps")
	}
	res, err := a.Submit(Update{Client: "c", Version: 2, Grad: []float64{1}})
	if err != nil || res.Accepted || !res.Done {
		t.Fatalf("submit after done: %+v, %v", res, err)
	}
}

func TestSelectingDefenseFiltersBuffer(t *testing.T) {
	// Krum over a 5-update buffer with one wild outlier: the outlier must
	// not survive into the staleness-weighted merge.
	dim := 8
	cfg := testConfig(dim, 5)
	cfg.Rule = aggregate.NewMultiKrum(1, 3)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(11)
	for i := 0; i < 4; i++ {
		g := tensor.RandNormal(rng, dim, 1, 0.01)
		if _, err := a.Submit(Update{Client: fmt.Sprintf("h%d", i), Version: 0, Grad: g}); err != nil {
			t.Fatal(err)
		}
	}
	evil := make([]float64, dim)
	for j := range evil {
		evil[j] = -1e6
	}
	if _, err := a.Submit(Update{Client: "byz", Version: 0, Grad: evil}); err != nil {
		t.Fatal(err)
	}
	hist := a.History()
	if len(hist) != 1 || hist[0].Kept >= hist[0].Buffer {
		t.Fatalf("history = %+v, want a filtered step", hist)
	}
	_, params, _ := a.Model()
	for j, p := range params {
		// An SGD step against a ~+1 mean gradient moves params negative;
		// the 1e6 outlier surviving would fling them hugely positive.
		if p > 0.5 || p < -0.5 {
			t.Fatalf("param %d = %v, outlier reached the model", j, p)
		}
	}
}

func TestCoordinatewiseDefenseUsesOwnAggregate(t *testing.T) {
	// Median yields no Selected set; the step must use its aggregate
	// directly (staleness weighting inapplicable).
	cfg := testConfig(1, 3)
	cfg.Rule = aggregate.NewMedian()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{1, 100, 2} {
		if _, err := a.Submit(Update{Client: fmt.Sprintf("c%d", i), Version: 0, Grad: []float64{v}}); err != nil {
			t.Fatal(err)
		}
	}
	_, params, _ := a.Model()
	want := -cfg.LR * 2 // median of {1, 100, 2}
	if math.Abs(params[0]-want) > 1e-12 {
		t.Fatalf("params = %v, want %v (median step)", params[0], want)
	}
}

// TestStaleEmptySelectionSkipsStep: a rule that keeps nothing of a buffer
// holding a stale entry leaves no survivor to weight, so the step is skipped
// and counted as an empty selection. The same answer on an all-fresh buffer
// is the rule's own aggregate, and steps.
func TestStaleEmptySelectionSkipsStep(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Rule = stubRule{res: &aggregate.Result{Gradient: []float64{1, 1}, Selected: []int{}}}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.version = 1
	g := []float64{3, 3}
	mustSubmit(t, a, Update{Client: "fresh", Version: 1, Grad: g})
	if res, err := a.Submit(Update{Client: "stale", Version: 0, Grad: g}); err != nil || res.Stepped {
		t.Fatalf("stale buffer: res=%+v err=%v, want no step", res, err)
	}
	if st := a.Stats(); st.EmptySelects != 1 || st.Steps != 0 || st.Version != 1 || st.RuleErrors != 0 {
		t.Fatalf("stats = %+v, want one empty selection at version 1", st)
	}
	if _, params, _ := a.Model(); params[0] != 0 || params[1] != 0 {
		t.Fatalf("params = %v, want untouched", params)
	}

	mustSubmit(t, a, Update{Client: "fresh", Version: 1, Grad: g})
	if res, err := a.Submit(Update{Client: "other", Version: 1, Grad: g}); err != nil || !res.Stepped {
		t.Fatalf("fresh buffer: res=%+v err=%v, want the rule's aggregate stepped", res, err)
	}
	if _, params, _ := a.Model(); params[0] != -cfg.LR || params[1] != -cfg.LR {
		t.Fatalf("params = %v, want one step along the rule's [1 1]", params)
	}
	if h := a.History(); len(h) != 1 || h[0].Kept != 0 || h[0].Buffer != 2 {
		t.Fatalf("history = %+v, want one step keeping 0 of 2", h)
	}
}

func TestSessionExpiryPurgesQueue(t *testing.T) {
	clock := time.Unix(0, 0)
	cfg := testConfig(1, 100)
	cfg.SessionTTL = time.Minute
	cfg.Now = func() time.Time { return clock }
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Submit(Update{Client: "ghost", Version: 0, Grad: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	clock = clock.Add(2 * time.Minute)
	if _, err := a.Submit(Update{Client: "live", Version: 0, Grad: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.PurgedUpdates != 3 || st.Buffered != 1 || st.Expired != 1 {
		t.Fatalf("stats = %+v, want ghost's 3 updates purged", st)
	}
}

func TestHeartbeatKeepsSessionAlive(t *testing.T) {
	clock := time.Unix(0, 0)
	cfg := testConfig(1, 100)
	cfg.SessionTTL = time.Minute
	cfg.Now = func() time.Time { return clock }
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(Update{Client: "c", Version: 0, Grad: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		clock = clock.Add(30 * time.Second)
		a.Heartbeat("c")
	}
	if st := a.Stats(); st.Expired != 0 || st.Buffered != 1 {
		t.Fatalf("stats = %+v, heartbeats should have kept the session", st)
	}
}

func TestConfigValidation(t *testing.T) {
	base := testConfig(2, 2)
	cases := []func(*Config){
		func(c *Config) { c.InitialParams = nil },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.Alpha = -1 },
		func(c *Config) { c.LR = 0 },
		func(c *Config) { c.QueueCap = -1 },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestRefusesServerLearner: FLTrust needs a server reference gradient and
// would fail every step for want of one, so New refuses it up front — behind
// the registry's FiniteGuard too — naming it; every other catalog defense
// is served.
func TestRefusesServerLearner(t *testing.T) {
	for _, name := range defense.Builtin().Names() {
		rule, err := defense.Builtin().Build(name, defense.Params{N: 8, F: 1, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := testConfig(2, 2)
		cfg.Rule = rule
		_, err = New(cfg)
		if name == "FLTrust" {
			if err == nil || !strings.Contains(err.Error(), "FLTrust") {
				t.Errorf("New with a guarded FLTrust: %v, want an error naming FLTrust", err)
			}
		} else if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// --- deterministic mode: byte-identical across interleavings ---------------

// buildSchedule returns a fixed seeded arrival schedule: updates carry
// dense Seq positions, all computed against version 0 (their staleness
// grows as steps land between them).
func buildSchedule(n, dim, clients int, seed int64) []Update {
	rng := tensor.NewRNG(seed)
	sched := make([]Update, n)
	for i := range sched {
		sched[i] = Update{
			Client:  fmt.Sprintf("c%d", i%clients),
			Version: 0,
			Seq:     int64(i),
			Grad:    tensor.RandNormal(rng, dim, 0, 1),
		}
	}
	return sched
}

// runSchedule executes the schedule under the given submission plan and
// returns the final params and history.
func runSchedule(t *testing.T, sched []Update, submit func(*Aggregator)) ([]float64, []StepSummary) {
	t.Helper()
	cfg := testConfig(len(sched[0].Grad), 5)
	cfg.Deterministic = true
	cfg.Alpha = 0.7
	cfg.SessionTTL = -1
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit(a)
	_, params, _ := a.Model()
	return params, a.History()
}

func TestDeterministicAcrossInterleavings(t *testing.T) {
	// Five clients for K = 5: in deterministic mode each slot (a position
	// mod K) belongs to one client.
	sched := buildSchedule(60, 12, 5, 42)

	// Interleaving 1: sequential, in schedule order.
	p1, h1 := runSchedule(t, sched, func(a *Aggregator) {
		for _, u := range sched {
			if _, err := a.Submit(u); err != nil {
				t.Error(err)
			}
		}
	})

	// Interleaving 2: four concurrent goroutines, each submitting a
	// strided quarter of the schedule in its own order.
	p2, h2 := runSchedule(t, sched, func(a *Aggregator) {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(sched); i += 4 {
					if _, err := a.Submit(sched[i]); err != nil {
						t.Error(err)
					}
				}
			}(w)
		}
		wg.Wait()
	})

	// Interleaving 3: fully reversed delivery — everything parks in the
	// reorder buffer until Seq 0 arrives last and the whole schedule
	// drains in one call.
	p3, h3 := runSchedule(t, sched, func(a *Aggregator) {
		for i := len(sched) - 1; i >= 0; i-- {
			if _, err := a.Submit(sched[i]); err != nil {
				t.Error(err)
			}
		}
	})

	for name, p := range map[string][]float64{"strided-concurrent": p2, "reversed": p3} {
		if len(p) != len(p1) {
			t.Fatalf("%s: param length mismatch", name)
		}
		for j := range p1 {
			if math.Float64bits(p[j]) != math.Float64bits(p1[j]) {
				t.Fatalf("%s: coordinate %d differs: %v vs %v (not byte-identical)", name, j, p[j], p1[j])
			}
		}
	}
	for name, h := range map[string][]StepSummary{"strided-concurrent": h2, "reversed": h3} {
		if len(h) != len(h1) {
			t.Fatalf("%s: %d steps vs %d", name, len(h), len(h1))
		}
		for i := range h1 {
			if h[i] != h1[i] {
				t.Fatalf("%s: step %d summary differs: %+v vs %+v", name, i, h[i], h1[i])
			}
		}
	}
}

func TestDeterministicRejectsDuplicateAndPastSeq(t *testing.T) {
	cfg := testConfig(1, 10)
	cfg.Deterministic = true
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(Update{Client: "c", Seq: 0, Grad: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(Update{Client: "c", Seq: 0, Grad: []float64{1}}); err == nil {
		t.Fatal("re-submitting an applied seq must error")
	}
	if _, err := a.Submit(Update{Client: "c", Seq: 2, Grad: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(Update{Client: "c", Seq: 2, Grad: []float64{1}}); err == nil {
		t.Fatal("duplicate parked seq must error")
	}
}

// TestDeterministicReorderWindowBounded: a client skipping far ahead in the
// schedule must be refused, not parked — an unbounded reorder buffer is a
// memory hole a malicious or buggy submitter can grow forever.
func TestDeterministicReorderWindowBounded(t *testing.T) {
	cfg := testConfig(1, 10)
	cfg.Deterministic = true
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// reorderWindow-1 is the furthest parkable position (next is 0).
	if res, err := a.Submit(Update{Client: "c", Seq: reorderWindow - 1, Grad: []float64{1}}); err != nil || !res.Held {
		t.Fatalf("in-window seq refused: res=%+v err=%v", res, err)
	}
	if _, err := a.Submit(Update{Client: "c", Seq: reorderWindow, Grad: []float64{1}}); err == nil {
		t.Fatal("seq beyond the reorder window must be refused")
	}
	// Deciding position 0 slides the window forward by one.
	if res, err := a.Submit(Update{Client: "c", Seq: 0, Grad: []float64{1}}); err != nil || !res.Accepted {
		t.Fatalf("seq 0: res=%+v err=%v", res, err)
	}
	if res, err := a.Submit(Update{Client: "c", Seq: reorderWindow, Grad: []float64{1}}); err != nil || !res.Held {
		t.Fatalf("seq %d after window slid: res=%+v err=%v", reorderWindow, res, err)
	}
}

// TestDeterministicParkedPurgedOnExpiry: a parked update whose session
// expires is abandoned — and its schedule position must still drain, not
// wedge every later position behind the hole.
func TestDeterministicParkedPurgedOnExpiry(t *testing.T) {
	clock := time.Unix(0, 0)
	cfg := testConfig(1, 100)
	cfg.Deterministic = true
	cfg.SessionTTL = time.Minute
	cfg.Now = func() time.Time { return clock }
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// "ghost" parks seq 1 and goes silent; seq 0 never arrives from it.
	if res, err := a.Submit(Update{Client: "ghost", Seq: 1, Grad: []float64{1}}); err != nil || !res.Held {
		t.Fatalf("park: res=%+v err=%v", res, err)
	}
	clock = clock.Add(2 * time.Minute)
	// "live" submits seq 0: ghost expired, its parked seq 1 is abandoned,
	// and the drain walks straight through the tombstone.
	if res, err := a.Submit(Update{Client: "live", Seq: 0, Grad: []float64{2}}); err != nil || !res.Accepted {
		t.Fatalf("seq 0: res=%+v err=%v", res, err)
	}
	if res, err := a.Submit(Update{Client: "live", Seq: 2, Grad: []float64{3}}); err != nil || !res.Accepted {
		t.Fatalf("seq 2 wedged behind abandoned position: res=%+v err=%v", res, err)
	}
	st := a.Stats()
	if st.PurgedUpdates != 1 || st.Arrivals != 2 {
		t.Fatalf("stats = %+v, want ghost's parked update purged and two arrivals", st)
	}
}

// --- session table ---------------------------------------------------------

func TestSessionTableSweepSorted(t *testing.T) {
	clock := time.Unix(0, 0)
	st := NewSessionTable(time.Minute, func() time.Time { return clock })
	for _, id := range []string{"b", "a", "c"} {
		st.Touch(id)
	}
	clock = clock.Add(2 * time.Minute)
	gone, _ := st.Touch("d")
	if len(gone) != 3 || gone[0] != "a" || gone[1] != "b" || gone[2] != "c" {
		t.Fatalf("sweep = %v, want sorted [a b c]", gone)
	}
	if st.Alive() != 1 || st.Expired() != 3 {
		t.Fatalf("alive %d expired %d", st.Alive(), st.Expired())
	}
}

func TestSessionTableZeroTTLNeverExpires(t *testing.T) {
	clock := time.Unix(0, 0)
	st := NewSessionTable(0, func() time.Time { return clock })
	st.Touch("c")
	clock = clock.Add(1000 * time.Hour)
	if gone, _ := st.Touch("d"); len(gone) != 0 {
		t.Fatalf("zero TTL expired %v", gone)
	}
}

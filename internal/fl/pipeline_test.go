package fl

import (
	"math/rand"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/core"
	"github.com/signguard/signguard/internal/tensor"
)

func TestUniformSubsampleSelect(t *testing.T) {
	rng := tensor.NewRNG(3)
	u := UniformSubsample{K: 4}
	ids, err := u.Select(rng, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("selected %d clients, want 4", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not strictly ascending: %v", ids)
		}
	}
	if ids[0] < 0 || ids[len(ids)-1] > 9 {
		t.Fatalf("ids out of range: %v", ids)
	}
	// Same stage RNG seed → same draw sequence.
	a, _ := UniformSubsample{K: 4}.Select(tensor.NewRNG(9), 0, 10)
	b, _ := UniformSubsample{K: 4}.Select(tensor.NewRNG(9), 0, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed drew different cohorts: %v vs %v", a, b)
		}
	}
	for _, k := range []int{0, 11, -1} {
		if _, err := (UniformSubsample{K: k}).Select(rng, 0, 10); err == nil {
			t.Errorf("K=%d accepted for 10 clients", k)
		}
	}
}

func TestSubsampledRunDeterministicAndDistinct(t *testing.T) {
	run := func(k int) *RunResult {
		cfg := baseConfig(tinyDataset(t))
		cfg.Rounds = 10
		if k > 0 {
			cfg.Pipeline.Participation = UniformSubsample{K: k}
		}
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(5), run(5)
	for i := range a.History {
		if a.History[i].TrainLoss != b.History[i].TrainLoss {
			t.Fatalf("subsampled runs with equal seeds diverged at round %d", i)
		}
	}
	full := run(0)
	same := true
	for i := range full.History {
		if full.History[i].TrainLoss != a.History[i].TrainLoss {
			same = false
			break
		}
	}
	if same {
		t.Error("subsampling had no effect on the training trajectory")
	}
}

func TestSubsampleCohortObservedPerRound(t *testing.T) {
	const k = 4
	var roundCohorts [][]int
	var submitted []int
	cfg := baseConfig(tinyDataset(t))
	cfg.Rounds = 8
	cfg.NumByz = 2
	cfg.Attack = attack.NewSignFlip()
	cfg.Pipeline.Participation = UniformSubsample{K: k}
	cfg.RoundHook = func(st *RoundState) {
		roundCohorts = append(roundCohorts, st.Participants)
		submitted = append(submitted, len(st.Grads))
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for r, cohort := range roundCohorts {
		if len(cohort) != k {
			t.Fatalf("round %d cohort size %d, want %d", r, len(cohort), k)
		}
		if submitted[r] != k {
			t.Fatalf("round %d submitted %d gradients, want %d", r, submitted[r], k)
		}
		for _, id := range cohort {
			seen[id] = true
		}
	}
	if len(seen) <= k {
		t.Errorf("cohorts never rotated: only clients %v participated", seen)
	}
}

// recordingAdversary captures the context the engine hands the attacker.
type recordingAdversary struct {
	needs    bool
	histLens []int
	rounds   []int
}

func (r *recordingAdversary) Name() string       { return "recorder" }
func (r *recordingAdversary) NeedsHistory() bool { return r.needs }
func (r *recordingAdversary) Craft(ctx *attack.Context) ([][]float64, error) {
	r.histLens = append(r.histLens, len(ctx.History))
	r.rounds = append(r.rounds, ctx.Round)
	return tensor.CloneAll(ctx.ByzOwn), nil
}

func TestAdaptiveAdversaryReceivesHistory(t *testing.T) {
	rec := &recordingAdversary{needs: true}
	cfg := baseConfig(tinyDataset(t))
	cfg.Rounds = 6
	cfg.NumByz = 2
	cfg.Attack = rec
	cfg.Rule = aggregate.NewMultiKrum(2, 8)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.histLens) != 6 {
		t.Fatalf("adversary crafted %d rounds, want 6", len(rec.histLens))
	}
	for r, n := range rec.histLens {
		if n != r {
			t.Errorf("round %d saw %d history entries, want %d", r, n, r)
		}
		if rec.rounds[r] != r {
			t.Errorf("context round %d, want %d", rec.rounds[r], r)
		}
	}
	// The round metrics and the adversary's history are one tally.
	if len(res.History) != len(sim.history) {
		t.Fatalf("%d round metrics, %d observations", len(res.History), len(sim.history))
	}
	for r, m := range res.History {
		if m.Observation != sim.history[r] {
			t.Errorf("round %d metrics %+v, adversary saw %+v", r, m.Observation, sim.history[r])
		}
	}
	// Multi-Krum reports selections, so the observations must carry counts.
	for i, o := range sim.history {
		if o.Round != i {
			t.Errorf("observation %d has round %d", i, o.Round)
		}
		if !o.HasSelection {
			t.Errorf("observation %d lost Multi-Krum's selection", i)
		}
		if o.TotalByz != 2 || o.TotalHonest != 8 {
			t.Errorf("observation %d totals %d/%d, want 2/8", i, o.TotalByz, o.TotalHonest)
		}
	}
}

func TestStaticAttackSeesNoHistory(t *testing.T) {
	rec := &recordingAdversary{needs: false}
	cfg := baseConfig(tinyDataset(t))
	cfg.Rounds = 5
	cfg.NumByz = 2
	cfg.Attack = rec
	cfg.Rule = aggregate.NewMultiKrum(2, 8)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for r, n := range rec.histLens {
		if n != 0 {
			t.Errorf("static adversary saw %d history entries in round %d", n, r)
		}
	}
	if sim.history != nil {
		t.Errorf("engine recorded %d observations for a static adversary", len(sim.history))
	}
}

func TestAdaptiveMinMaxEndToEnd(t *testing.T) {
	cfg := baseConfig(tinyDataset(t))
	cfg.Rounds = 12
	cfg.NumByz = 2
	cfg.Attack = attack.NewAdaptiveMinMax()
	cfg.Rule = core.NewPlain(7)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AttackName != "Adaptive-Min-Max" {
		t.Errorf("attack name %q", res.AttackName)
	}
	if len(sim.history) != 12 {
		t.Fatalf("engine recorded %d observations, want 12", len(sim.history))
	}
	// SignGuard reports selections every round, so the adaptation signal
	// must be live (HasSelection true throughout).
	for _, o := range sim.history {
		if !o.HasSelection {
			t.Fatal("SignGuard round without selection info")
		}
	}
	if res.Diverged {
		t.Error("adaptive min-max destroyed training through SignGuard")
	}
}

// byzOnlyParticipation selects only the Byzantine clients (ids 0..m-1).
type byzOnlyParticipation struct{ m int }

func (b byzOnlyParticipation) Name() string { return "byz-only" }
func (b byzOnlyParticipation) Select(_ *rand.Rand, _, _ int) ([]int, error) {
	ids := make([]int, b.m)
	for i := range ids {
		ids[i] = i
	}
	return ids, nil
}

func TestByzOnlyRoundFallsBackToHonestGradients(t *testing.T) {
	cfg := baseConfig(tinyDataset(t))
	cfg.Rounds = 2
	cfg.NumByz = 3
	cfg.Attack = attack.NewSignFlip()
	cfg.Pipeline.Participation = byzOnlyParticipation{m: 3}
	var maskTrue int
	cfg.RoundHook = func(st *RoundState) {
		for _, b := range st.ByzMask {
			if b {
				maskTrue++
			}
		}
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatalf("byz-only round failed: %v", err)
	}
	if maskTrue != 6 {
		t.Errorf("expected 3 byz submissions × 2 rounds, mask counted %d", maskTrue)
	}
}

// halvingUpdate is a custom stage-5 implementation for the plug test.
type halvingUpdate struct{}

func (halvingUpdate) Name() string { return "halving" }
func (halvingUpdate) Apply(_ int, global, grad []float64) error {
	for i := range global {
		global[i] -= 0.5 * grad[i]
	}
	return nil
}

func TestCustomUpdateAndDefenseStages(t *testing.T) {
	cfg := baseConfig(tinyDataset(t))
	cfg.Rounds = 3
	cfg.LR = 0 // no Rule-side optimizer needed
	cfg.Rule = nil
	cfg.Pipeline.Defense = RuleDefense{Rule: aggregate.NewMedian()}
	cfg.Pipeline.Update = halvingUpdate{}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RuleName != "Median" {
		t.Errorf("defense name %q", res.RuleName)
	}
	if sim.Pipeline().Update.Name() != "halving" {
		t.Errorf("update stage %q", sim.Pipeline().Update.Name())
	}
}

func TestInvalidParticipationRejected(t *testing.T) {
	cfg := baseConfig(tinyDataset(t))
	cfg.Pipeline.Participation = UniformSubsample{K: cfg.Clients + 1}
	if _, err := New(cfg); err == nil {
		t.Fatal("oversized subsample accepted at New")
	}
}

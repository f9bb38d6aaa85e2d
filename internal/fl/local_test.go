package fl

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/core"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/nn"
)

// perClientCompute is the reference local stage the equivalence tests
// compare the engine against: the same partition over the worker replicas,
// but one forward/backward pass per client (the engine's own fallback loop)
// whatever the model supports.
type perClientCompute struct{}

func (perClientCompute) Name() string { return "per-client-sgd" }

func (perClientCompute) Compute(env *LocalEnv, participants []*Client) ([]ClientGrad, error) {
	return overReplicas(env, participants, func(_ int, m nn.Classifier, outs []ClientGrad, start, end int) {
		perClient(env, m, participants, outs, start, end)
	}), nil
}

// digestPair runs the same configuration through the per-client reference
// stage (via Pipeline.Local) and the default stage and returns both trace
// digests; every test here asserts byte-identity through them. build must
// return a fresh Config per call — stateful defenses (SignGuard's
// previous-aggregate reference) would otherwise leak state from one run
// into the other.
func digestPair(t *testing.T, build func() Config) (perClient, batched string) {
	t.Helper()
	cfg := build()
	cfg.Pipeline.Local = perClientCompute{}
	perClient = traceDigest(t, cfg)
	batched = traceDigest(t, build())
	return perClient, batched
}

// TestBatchedUnequalMinibatches: BatchSize 7 over 40-example client
// partitions forces epoch-boundary tail batches of 5, so stacked segments
// have unequal sizes. De-interleaving must still be byte-identical.
func TestBatchedUnequalMinibatches(t *testing.T) {
	build := func() Config {
		cfg := baseConfig(tinyDataset(t))
		cfg.BatchSize = 7
		cfg.Rounds = 14 // crosses each client's 40-example epoch twice
		cfg.Workers = 3
		return cfg
	}
	if r, b := digestPair(t, build); r != b {
		t.Errorf("unequal minibatch sizes: batched trace %s, per-client %s", b, r)
	}
}

// TestBatchedSingleClientSegments: cohorts of one client per worker (and a
// one-client simulation) exercise the single-segment stacked batch.
func TestBatchedSingleClientSegments(t *testing.T) {
	perWorker := func() Config {
		cfg := baseConfig(tinyDataset(t))
		cfg.Clients = 3
		cfg.Workers = 3 // one client per worker: every stacked batch has one segment
		return cfg
	}
	if r, b := digestPair(t, perWorker); r != b {
		t.Errorf("one client per worker: batched trace %s, per-client %s", b, r)
	}

	solo := func() Config {
		cfg := baseConfig(tinyDataset(t))
		cfg.Clients = 1
		cfg.Rounds = 10
		return cfg
	}
	if r, b := digestPair(t, solo); r != b {
		t.Errorf("single-client run: batched trace %s, per-client %s", b, r)
	}
}

// TestBatchedByzantineOnlyRounds: under aggressive subsampling some rounds
// select only Byzantine clients; the engine then submits their honest
// gradients unchanged (no benign statistics to mimic). The batched engine
// must reproduce that fallback byte for byte — and such rounds must
// actually occur in the run for the test to mean anything.
func TestBatchedByzantineOnlyRounds(t *testing.T) {
	build := func() Config {
		cfg := baseConfig(tinyDataset(t))
		cfg.Clients = 5
		cfg.NumByz = 4
		cfg.Attack = attack.NewLIE(0.3)
		cfg.Rule = core.NewPlain(2)
		cfg.Rounds = 20
		cfg.Pipeline.Participation = uniformSubsample{2}
		return cfg
	}

	byzOnly := 0
	cfg := build()
	hook := func(st *RoundState) {
		allByz := true
		for _, id := range st.Participants {
			if id >= cfg.NumByz {
				allByz = false
			}
		}
		if allByz {
			byzOnly++
		}
	}
	cfg.RoundHook = func(st *RoundState) { hook(st) }
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if byzOnly == 0 {
		t.Fatal("no Byzantine-only round occurred; adjust K/seed so the fallback is exercised")
	}

	if r, b := digestPair(t, build); r != b {
		t.Errorf("Byzantine-only rounds: batched trace %s, per-client %s", b, r)
	}
}

// TestBatchedTextModelEquivalence: the text RNN batches through the
// time-major stacked kernel; its per-segment de-interleaving must be
// byte-identical to the per-client path (variable-length sequences and
// all).
func TestBatchedTextModelEquivalence(t *testing.T) {
	ds, err := data.AGNewsLike(3, 300, 60)
	if err != nil {
		t.Fatal(err)
	}
	build := func() Config {
		return Config{
			Dataset: ds,
			NewModel: func(rng *rand.Rand) (nn.Classifier, error) {
				return nn.NewTextRNN(rng, 128, 8, 12, 4), nil
			},
			Rule:    core.NewPlain(5),
			Attack:  attack.NewLIE(0.3),
			Clients: 6, NumByz: 2, Rounds: 4, BatchSize: 8,
			LR: 0.1, Momentum: 0.9, WeightDecay: 5e-4,
			EvalEvery: 4, EvalSamples: 30, Seed: 5, Workers: 2,
		}
	}
	if r, b := digestPair(t, build); r != b {
		t.Errorf("text batched: batched trace %s, per-client %s", b, r)
	}
}

// TestBatchedWorkerSurplus: more workers than participants must clamp to
// the cohort size and stay byte-identical (each worker then handles at
// most one client, so every stacked tile is a single segment).
func TestBatchedWorkerSurplus(t *testing.T) {
	build := func() Config {
		cfg := baseConfig(tinyDataset(t))
		cfg.Clients = 3
		cfg.Workers = 7 // > clients: clamp, one client per active worker
		cfg.Rounds = 10
		return cfg
	}
	if r, b := digestPair(t, build); r != b {
		t.Errorf("worker surplus: batched trace %s, per-client %s", b, r)
	}
}

// TestBatchedOneRowTiles: BatchSize 1 makes every client segment a single
// row, the smallest possible tile slices through the arena-backed kernels.
func TestBatchedOneRowTiles(t *testing.T) {
	build := func() Config {
		cfg := baseConfig(tinyDataset(t))
		cfg.BatchSize = 1
		cfg.Rounds = 6
		cfg.Workers = 2
		return cfg
	}
	if r, b := digestPair(t, build); r != b {
		t.Errorf("one-row tiles: batched trace %s, per-client %s", b, r)
	}
}

// arenaBuffers counts the scratch buffers ws retains: its matrix and index
// maps, read through reflection because the arena keeps them unexported.
func arenaBuffers(ws *nn.Workspace) int {
	v := reflect.ValueOf(ws).Elem()
	return v.FieldByName("mats").Len() + v.FieldByName("ints").Len()
}

// outsideLocal wraps a LocalCompute the way a stage decorator outside the
// package does (bench/sim.go's traced path): the inner stage is a
// ReplicaCompute{} value the caller built, not one the engine resolved.
type outsideLocal struct{ LocalCompute }

// TestReplicaComputeByValueUsesEngineScratch: a ReplicaCompute{} supplied by
// value through Config.Pipeline.Local is the default engine — same digest —
// and runs on the Simulation's per-worker scratch and gradient arena, so a
// warm round's local stage allocates no more than its drawn minibatches.
func TestReplicaComputeByValueUsesEngineScratch(t *testing.T) {
	want := goldenTraces["SignGuard/LIE"]
	cfg := goldenScenario(t, "SignGuard/LIE")
	cfg.Pipeline.Local = outsideLocal{ReplicaCompute{}}
	if got := traceDigest(t, cfg); got != want {
		t.Errorf("ReplicaCompute{} by value: trace digest %s, want the default's %s", got, want)
	}

	cfg = goldenScenario(t, "SignGuard/LIE")
	cfg.Workers = 1
	cfg.Pipeline.Local = outsideLocal{ReplicaCompute{}}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		outs, err := sim.pipe.Local.Compute(sim.localEnv(len(sim.clients)), sim.clients)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
		}
	}
	round() // grow the arena
	if arenaBuffers(sim.scratch[0].ws) == 0 {
		t.Fatal("the stage never checked a buffer out of the engine-owned arena")
	}
	// Per participant only its drawn minibatch may allocate — its gradient
	// lands in the engine's arena; the rest is a small constant (env,
	// outputs, closures, per-tile loss/count slices). A stage that missed
	// the engine's scratch pays for every layer buffer, the tile assembly
	// and a gradient block per tile on top.
	warm := testing.AllocsPerRun(20, round)
	if limit := float64(len(sim.clients) + 20); warm > limit {
		t.Errorf("warm local stage makes %.0f allocations per round, want <= %.0f", warm, limit)
	}
	bare := sim.localEnv(len(sim.clients))
	bare.scratch, bare.grads = nil, nil
	cold := testing.AllocsPerRun(20, func() {
		if _, err := sim.pipe.Local.Compute(bare, sim.clients); err != nil {
			t.Fatal(err)
		}
	})
	if cold <= warm {
		t.Errorf("scratch-less env allocates %.0f per round vs %.0f warm; the ceiling proves nothing", cold, warm)
	}
}

// unbatchable hides the model's batch method: only the nn.Classifier
// methods are promoted through the embedded interface.
type unbatchable struct{ nn.Classifier }

// TestUnbatchableModelFallsBack: a model without BatchedLossAndGrad runs
// the per-client loop inside the default stage and reproduces the batchable
// model's pinned digest.
func TestUnbatchableModelFallsBack(t *testing.T) {
	if _, ok := nn.Classifier(unbatchable{}).(nn.BatchClassifier); ok {
		t.Fatal("wrapper still exposes the batch method")
	}
	for _, workers := range []int{1, 3} {
		cfg := goldenScenario(t, "SignGuard/LIE")
		cfg.Workers = workers
		cfg.NewModel = func(rng *rand.Rand) (nn.Classifier, error) {
			m, err := tinyModel(rng)
			return unbatchable{m}, err
		}
		if got, want := traceDigest(t, cfg), goldenTraces["SignGuard/LIE"]; got != want {
			t.Errorf("workers=%d: fallback trace digest %s, want %s", workers, got, want)
		}
	}
}

// TestArenaRetentionUnderSubsampling: with K-of-n participation the
// clients' epoch-boundary tail batches (7, 7, 7, 7, 7, 5 rows over a
// 40-example partition) desynchronise, so tile row counts wander from round
// to round. The arena must keep one buffer per (layer, slot) throughout — a
// shape-keyed arena grew from 7 to 35 matrices over this run — and the
// trace must stay the one recorded at the parent commit (PR 13).
func TestArenaRetentionUnderSubsampling(t *testing.T) {
	const pinned = "25dfb5f533547969cac5c20db5bdb00db442958fb0def1c5a1c3514f4dad8ae1"
	build := func() Config {
		cfg := baseConfig(tinyDataset(t))
		cfg.BatchSize = 7
		cfg.Rounds = 400
		cfg.EvalEvery = 100
		cfg.Workers = 1
		cfg.Pipeline.Participation = uniformSubsample{6}
		return cfg
	}
	if got := traceDigest(t, build()); got != pinned {
		t.Errorf("trace digest %s, want %s", got, pinned)
	}

	sim, err := New(build())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[int]bool{}
	var full int // buffer count after the first round that stacked a full tile
	for r := 0; r < 400; r++ {
		if _, err := sim.Step(r); err != nil {
			t.Fatal(err)
		}
		sc := sim.scratch[0]
		tile := sc.bounds[len(sc.bounds)-1]
		rows[tile] = true
		if full == 0 && tile == 6*7 {
			full = arenaBuffers(sc.ws)
		}
	}
	if len(rows) < 3 {
		t.Fatalf("tile row counts %v never wandered; the scenario no longer exercises re-shaping", rows)
	}
	if got := arenaBuffers(sim.scratch[0].ws); full == 0 || got != full {
		t.Errorf("arena holds %d buffers after 400 rounds over %d tile shapes, want the %d of the first full tile",
			got, len(rows), full)
	}
}

package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/core"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/nn"
)

// goldenTraces pin the engine's exact numerical behavior: a SHA-256 over
// the Float64bits of every per-round aggregated gradient, every per-round
// training loss, and the full accuracy trace of a fixed-seed run. The
// constants were captured from the monolithic pre-pipeline engine (PR 2),
// so they prove the composable round pipeline's default configuration —
// full participation, static attack, existing defenses — reproduces the
// old engine bit for bit.
var goldenTraces = map[string]string{
	"Mean/NoAttack":      "08f48178a460890273043fe12fece1616bfc58e8d911913e1fb60441acd8c3a9",
	"SignGuard/LIE":      "f4c73cb769d21ad429b0026a772016993206b3aa81936c8769e78db724185cd5",
	"TrMean/SignFlip":    "c22b87bf64c5eca43aa663a3b49c451e3dc825ff1930ac9a6a391d8b242b6610",
	"Multi-Krum/Min-Max": "8328035aa6ff52f0fdd4f534a35d2b8b5ae04fce684ea137ba7deb8b480c147d",
}

// goldenScenario builds each pinned scenario on the shared tiny dataset.
func goldenScenario(t *testing.T, name string) Config {
	t.Helper()
	cfg := baseConfig(tinyDataset(t))
	cfg.Rounds = 12
	cfg.EvalEvery = 4
	cfg.EvalSamples = 60
	switch name {
	case "Mean/NoAttack":
		// baseConfig defaults: Mean rule, no Byzantine clients.
	case "SignGuard/LIE":
		cfg.NumByz = 2
		cfg.Attack = attack.NewLIE(0.3)
		cfg.Rule = core.NewPlain(7)
	case "TrMean/SignFlip":
		cfg.NumByz = 2
		cfg.Attack = attack.NewSignFlip()
		cfg.Rule = aggregate.NewTrimmedMean(2)
	case "Multi-Krum/Min-Max":
		cfg.NumByz = 2
		cfg.Attack = attack.NewMinMax()
		cfg.Rule = aggregate.NewMultiKrum(2, 8)
	default:
		t.Fatalf("unknown golden scenario %q", name)
	}
	return cfg
}

func hashFloats(h hash.Hash, vals ...float64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// traceDigest runs the configuration and digests everything the paper's
// experiments consume: the aggregated gradient and selected set of every
// round, the per-round losses, and the evaluated accuracy trace. A hook
// already in cfg runs first on every round.
func traceDigest(t *testing.T, cfg Config) string {
	t.Helper()
	h := sha256.New()
	hook := cfg.RoundHook
	cfg.RoundHook = func(st *RoundState) {
		if hook != nil {
			hook(st)
		}
		hashFloats(h, float64(st.Round))
		hashFloats(h, st.Result.Gradient...)
		for _, i := range st.Result.Selected {
			hashFloats(h, float64(i))
		}
		for _, b := range st.ByzMask {
			if b {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("golden scenario diverged")
	}
	for _, m := range res.History {
		hashFloats(h, m.TrainLoss)
	}
	rounds, accs := res.AccuracyTrace()
	for i := range rounds {
		hashFloats(h, float64(rounds[i]), accs[i])
	}
	hashFloats(h, res.BestAccuracy, res.FinalAccuracy)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDeterminism proves the default pipeline reproduces the
// pre-refactor engine byte for byte (accuracy traces, aggregated gradients,
// selection decisions) for a fixed seed.
func TestGoldenDeterminism(t *testing.T) {
	for name, want := range goldenTraces {
		t.Run(name, func(t *testing.T) {
			got := traceDigest(t, goldenScenario(t, name))
			if want == "" {
				t.Fatalf("golden hash not yet recorded; computed %s", got)
			}
			if got != want {
				t.Errorf("engine trace drifted from the pre-pipeline engine:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestGoldenWorkerInvariance re-runs one golden scenario with explicit
// worker counts: the digest must not depend on parallelism.
func TestGoldenWorkerInvariance(t *testing.T) {
	want := goldenTraces["SignGuard/LIE"]
	for _, workers := range []int{1, 3} {
		cfg := goldenScenario(t, "SignGuard/LIE")
		cfg.Rule = core.NewPlain(7) // fresh stateful rule per run
		cfg.Workers = workers
		if got := traceDigest(t, cfg); got != want {
			t.Errorf("workers=%d: trace digest %s, want %s", workers, got, want)
		}
	}
}

// TestGoldenBatchedEquivalence proves the stacked-tile local stage is
// byte-identical (the digests cover the Float64bits of every per-round
// aggregated gradient, selection, loss and accuracy) to the per-client
// reference stage across Workers ∈ {1, 2, 7}, against the same pinned
// pre-pipeline traces. Tiling replaced the per-client loop in the hottest
// stage of the system; this test is its exactness contract.
func TestGoldenBatchedEquivalence(t *testing.T) {
	for name, want := range goldenTraces {
		for _, workers := range []int{1, 2, 7} {
			for _, stage := range []LocalCompute{perClientCompute{}, nil} {
				t.Run(fmt.Sprintf("%s/workers=%d/perClient=%v", name, workers, stage != nil), func(t *testing.T) {
					cfg := goldenScenario(t, name)
					cfg.Workers = workers
					cfg.Pipeline.Local = stage // nil = the default stage
					if got := traceDigest(t, cfg); got != want {
						t.Errorf("trace digest drifted from the pinned per-client trace:\n got %s\nwant %s", got, want)
					}
				})
			}
		}
	}
}

// serverLearningTraces pin FLTrust runs, whose defense aggregates against
// a root gradient the server computes on its own root dataset every round:
// one on the golden MLP and one on the text RNN, with a LIE adversary so
// trust scores separate the cohort. They were recorded while the root
// gradient was a standalone per-client LossAndGrad pass.
var serverLearningTraces = map[string]string{
	"FLTrust/tiny": "db06b5e32d0b4cb64884704c119db4acff09f20b6c2e47210ac335a38922c822",
	"FLTrust/text": "8d2de0caed8d6b7e8dedff91c5b4de8d1c770820b014b02f95a7fca3a365b286",
}

// serverLearningScenario builds each pinned server-learning scenario.
func serverLearningScenario(t *testing.T, name string) Config {
	t.Helper()
	var cfg Config
	switch name {
	case "FLTrust/tiny":
		cfg = baseConfig(tinyDataset(t))
		cfg.Rounds = 12
		cfg.EvalEvery = 4
		cfg.EvalSamples = 60
	case "FLTrust/text":
		ds, err := data.AGNewsLike(3, 300, 60)
		if err != nil {
			t.Fatal(err)
		}
		cfg = Config{
			Dataset: ds,
			NewModel: func(rng *rand.Rand) (nn.Classifier, error) {
				return nn.NewTextRNN(rng, 128, 8, 12, 4), nil
			},
			Clients: 6, Rounds: 6, BatchSize: 8,
			LR: 0.1, Momentum: 0.9, WeightDecay: 5e-4,
			EvalEvery: 3, EvalSamples: 30, Seed: 5,
		}
	default:
		t.Fatalf("unknown server-learning scenario %q", name)
	}
	cfg.NumByz = 2
	cfg.Attack = attack.NewLIE(0.3)
	cfg.Rule = aggregate.NewFLTrust()
	return cfg
}

// TestGoldenServerLearning pins the server root gradient's path: every
// round's FLTrust aggregate depends on the root gradient's bits, so the
// digests move if that gradient does. The runs must trust some client in
// some round, or the root gradient would shape no aggregate.
func TestGoldenServerLearning(t *testing.T) {
	for name, want := range serverLearningTraces {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				cfg := serverLearningScenario(t, name)
				cfg.Workers = workers
				trusted := 0
				cfg.RoundHook = func(st *RoundState) { trusted += len(st.Result.Selected) }
				got := traceDigest(t, cfg)
				if trusted == 0 {
					t.Fatal("FLTrust trusted no client in any round; the root gradient shaped nothing")
				}
				if want == "" {
					t.Fatalf("golden hash not yet recorded; computed %s", got)
				}
				if got != want {
					t.Errorf("server-learning trace drifted:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

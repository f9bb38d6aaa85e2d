package fl

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/core"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/nn"
	"github.com/signguard/signguard/internal/sanitize"
)

// BenchmarkLocalCompute is the regression benchmark of the round's hottest
// stage: the participants' gradient computation, isolated from the rest of
// the pipeline, swept over cohort × workers on the ImageCNN model, plus
// sim_paper's shape under deepcnn/: the CIFAR analog's DeepCNN, batch 8,
// 50 clients.
func BenchmarkLocalCompute(b *testing.B) {
	ds, err := data.GenerateSynthImage(data.SynthImageConfig{
		Name: "bench", Classes: 8, C: 1, H: 8, W: 8, Train: 8000, Test: 200,
		Margin: 4, NoiseStd: 0.4, SmoothPass: 1, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	cifar, err := data.CIFARLike(11, 4000, 200)
	if err != nil {
		b.Fatal(err)
	}
	type shape struct {
		name          string
		ds            *data.Dataset
		model         func(rng *rand.Rand) (nn.Classifier, error)
		cohort, batch int
	}
	var shapes []shape
	for _, cohort := range []int{50, 200} {
		shapes = append(shapes, shape{fmt.Sprintf("cohort=%d", cohort), ds, func(rng *rand.Rand) (nn.Classifier, error) {
			return nn.NewImageCNN(rng, 1, 8, 8, 6, 64, 8)
		}, cohort, 16})
	}
	shapes = append(shapes, shape{"deepcnn/cohort=50", cifar, func(rng *rand.Rand) (nn.Classifier, error) {
		return nn.NewDeepImageCNN(rng, 3, 8, 8, 8, 16, 32, 10)
	}, 50, 8})
	for _, sh := range shapes {
		for _, workers := range []int{1, 4} {
			sim, err := New(Config{
				Dataset:  sh.ds,
				NewModel: sh.model,
				Rule:     aggregate.NewMean(),
				Clients:  sh.cohort, NumByz: 0, Rounds: 1, BatchSize: sh.batch,
				LR: 0.03, EvalEvery: 1, Seed: 1, Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/workers=%d", sh.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				benchComputeLoop(b, sim)
				b.ReportMetric(float64(sh.cohort*b.N)/b.Elapsed().Seconds(), "clients/s")
			})
		}
	}
}

// benchComputeLoop measures steady-state rounds of the simulation's local
// stage over its full cohort: warm-up rounds outside the timer grow the
// per-worker arenas to the largest tile, so B/op reflects the per-round
// allocation cost rather than one-time buffer growth.
func benchComputeLoop(b *testing.B, sim *Simulation) {
	b.Helper()
	env := sim.localEnv(len(sim.clients))
	run := func() {
		outs, err := sim.pipe.Local.Compute(env, sim.clients)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range outs {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkLocalComputeText is BenchmarkLocalCompute's text-model twin:
// the agnews-shaped RNN through the time-major stacked kernel, so the
// allocation gate also covers the token-sequence path (variable-length
// sequences, embedding scatter).
func BenchmarkLocalComputeText(b *testing.B) {
	ds, err := data.AGNewsLike(7, 4000, 200)
	if err != nil {
		b.Fatal(err)
	}
	const cohort = 50
	for _, workers := range []int{1, 4} {
		sim, err := New(Config{
			Dataset: ds,
			NewModel: func(rng *rand.Rand) (nn.Classifier, error) {
				return nn.NewTextRNN(rng, 128, 16, 32, 4), nil
			},
			Rule:    aggregate.NewMean(),
			Clients: cohort, NumByz: 0, Rounds: 1, BatchSize: 16,
			LR: 0.03, EvalEvery: 1, Seed: 1, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("cohort=%d/workers=%d", cohort, workers), func(b *testing.B) {
			b.ReportAllocs()
			benchComputeLoop(b, sim)
			b.ReportMetric(float64(cohort*b.N)/b.Elapsed().Seconds(), "clients/s")
		})
	}
}

// BenchmarkSimulationRun50Clients compares the sequential gradient phase
// against the parallel worker pool at the paper's client count, the
// perf baseline for future engine work. The reported rounds/s metric is
// the per-round throughput of the whole simulation.
func BenchmarkSimulationRun50Clients(b *testing.B) {
	ds, err := data.GenerateSynthImage(data.SynthImageConfig{
		Name: "bench", Classes: 8, C: 1, H: 8, W: 8, Train: 2000, Test: 200,
		Margin: 4, NoiseStd: 0.4, SmoothPass: 1, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	const rounds = 10
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, err := New(Config{
					Dataset: ds,
					NewModel: func(rng *rand.Rand) (nn.Classifier, error) {
						return nn.NewImageCNN(rng, 1, 8, 8, 6, 32, 8)
					},
					Rule:    core.NewSim(1),
					Attack:  attack.NewLIE(0.3),
					Clients: 50, NumByz: 10, Rounds: rounds, BatchSize: 8,
					LR: 0.03, Momentum: 0.9, WeightDecay: 5e-4,
					EvalEvery: rounds, EvalSamples: 100, Seed: 1,
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rounds*b.N)/b.Elapsed().Seconds(), "rounds/s")
		})
	}
}

// wideSimulation is a Simulation at the repository benchmark's sim_wide
// shape — 200 MNIST-like clients at batch 1, a fifth of them running LIE,
// the topk codec, Multi-Krum, two workers — warmed by two rounds so the
// round arenas have grown. It returns the next round index.
func wideSimulation(tb testing.TB) (*Simulation, int) {
	tb.Helper()
	ds, err := data.MNISTLike(7, 4000, 100)
	if err != nil {
		tb.Fatal(err)
	}
	const clients, byz = 200, 40
	rule, err := defense.Builtin().Build("Multi-Krum", defense.Params{N: clients, F: byz, Seed: 12})
	if err != nil {
		tb.Fatal(err)
	}
	sim, err := New(Config{
		Dataset: ds,
		NewModel: func(rng *rand.Rand) (nn.Classifier, error) {
			return nn.NewImageCNN(rng, 1, 8, 8, 6, 32, 10)
		},
		Rule: rule, Attack: attack.NewLIE(0.3),
		Clients: clients, NumByz: byz, Rounds: 1, BatchSize: 1,
		LR: 0.03, Momentum: 0.9, WeightDecay: 5e-4,
		NonFinite: sanitize.Reject, Seed: 1, Workers: 2,
		Pipeline: Pipeline{Codec: codec.TopKCodec{}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	const warm = 2
	for r := 0; r < warm; r++ {
		if _, err := sim.Step(r); err != nil {
			tb.Fatal(err)
		}
	}
	return sim, warm
}

// BenchmarkStep is the profile input for a whole round at sim_wide's shape:
// every stage, with the round arenas warm, so B/op is what one steady-state
// round allocates (make profile writes profiles/step.{cpu,mem}.pprof).
func BenchmarkStep(b *testing.B) {
	sim, round := wideSimulation(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Step(round + i); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own account.
var raceEnabled bool

// stepAllocBudget pins what one warm sim_wide-shaped round may allocate.
// BenchmarkStep reads 3.46 MB: the encode payloads, the adversary's crafted
// vectors, the defense's scratch and small per-round headers. Before the
// round arenas it read 19.0 MB — a fresh local-gradient matrix and a fresh
// decoded matrix every round, 7.3 MB each.
const stepAllocBudget = 4 << 20

// TestStepAllocationBudget: after two warm rounds, a Step at sim_wide's
// shape allocates less than stepAllocBudget bytes — the local gradients
// and the decoded submissions land in the Simulation's arenas.
func TestStepAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sim, round := wideSimulation(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sim.Step(round); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= stepAllocBudget {
		t.Errorf("a warm round allocated %d bytes, budget %d", got, stepAllocBudget)
	}
}

package fl

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/core"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/nn"
)

// BenchmarkLocalCompute is the regression benchmark of the round's hottest
// stage: the participants' gradient computation, isolated from the rest of
// the pipeline, swept over cohort × workers on the ImageCNN model.
func BenchmarkLocalCompute(b *testing.B) {
	ds, err := data.GenerateSynthImage(data.SynthImageConfig{
		Name: "bench", Classes: 8, C: 1, H: 8, W: 8, Train: 8000, Test: 200,
		Margin: 4, NoiseStd: 0.4, SmoothPass: 1, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, cohort := range []int{50, 200} {
		for _, workers := range []int{1, 4} {
			sim, err := New(Config{
				Dataset: ds,
				NewModel: func(rng *rand.Rand) (nn.Classifier, error) {
					return nn.NewImageCNN(rng, 1, 8, 8, 6, 64, 8)
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
}

// benchComputeLoop measures steady-state rounds of the simulation's local
// stage over its full cohort: warm-up rounds outside the timer grow the
// per-worker arenas to the largest tile, so B/op reflects the per-round
// allocation cost rather than one-time buffer growth.
func benchComputeLoop(b *testing.B, sim *Simulation) {
	b.Helper()
	env := sim.localEnv()
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

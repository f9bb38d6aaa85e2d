// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus micro-benchmarks of the aggregation rules and
// attacks themselves.
//
// The per-experiment benchmarks run a miniature version of each sweep (10
// clients, 20 rounds, small data) so that `go test -bench=.` terminates in
// minutes; run them with -v to see the regenerated rows. The full-size
// regeneration runs through cmd/campaign, which computes the grid into its
// store and then renders the tables from it:
//
//	go run ./cmd/campaign run -name table1 -scale standard
//	go run ./cmd/campaign export -name table1 -scale standard -format md
package signguard_test

import (
	"context"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/core"
	"github.com/signguard/signguard/internal/experiments"
	"github.com/signguard/signguard/internal/tensor"
)

// microParams is an extra-small preset so each experiment benchmark
// iteration stays in the seconds range.
func microParams() experiments.Params {
	return experiments.Params{
		Clients: 10, ByzFraction: 0.2, Rounds: 20, BatchSize: 8,
		EvalEvery: 5, EvalSamples: 150, TrainSize: 600, TestSize: 200, Seed: 1,
	}
}

// benchExperiment regenerates one catalog experiment per iteration on a
// cache-less parallel engine, logging its tables once (visible with -v).
// filter, when non-empty, narrows the grid at microParams to the cells
// whose ID contains it (whole tables, so they render).
func benchExperiment(b *testing.B, name, filter string) {
	x, err := experiments.Experiments().Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	p := microParams()
	spec := x.Spec(p).Filter(filter)
	for i := 0; i < b.N; i++ {
		rep, err := experiments.NewEngine(0, nil, nil).Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		tables, err := x.Render(p, rep.Results)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		for _, t := range tables {
			var sb strings.Builder
			if err := t.Markdown(&sb); err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkTable1 regenerates Table I (defense × attack best accuracy) for
// each dataset analog at micro scale.
func BenchmarkTable1(b *testing.B) {
	for _, ds := range experiments.Datasets().Values() {
		b.Run(ds.Key, func(b *testing.B) {
			benchExperiment(b, "table1", ds.Key+"/")
		})
	}
}

// BenchmarkTable2SelectionRates regenerates Table II (honest/malicious
// selection rates of the SignGuard variants).
func BenchmarkTable2SelectionRates(b *testing.B) { benchExperiment(b, "table2", "") }

// BenchmarkTable3Ablation regenerates Table III (component ablation).
func BenchmarkTable3Ablation(b *testing.B) { benchExperiment(b, "table3", "") }

// BenchmarkFig2SignStatistics regenerates Fig. 2 (sign statistics of the
// honest vs LIE-crafted gradients over training). At the catalog's stride
// (about 30 samples per run) the 20-round micro run probes every round.
func BenchmarkFig2SignStatistics(b *testing.B) { benchExperiment(b, "fig2", "") }

// BenchmarkFig4ByzantineFraction regenerates Fig. 4 (attack impact vs
// Byzantine fraction).
func BenchmarkFig4ByzantineFraction(b *testing.B) { benchExperiment(b, "fig4", "") }

// BenchmarkFig5TimeVarying regenerates Fig. 5 (accuracy curves under the
// time-varying attack).
func BenchmarkFig5TimeVarying(b *testing.B) { benchExperiment(b, "fig5", "") }

// BenchmarkFig6NonIID regenerates Fig. 6 (non-IID skew sweep).
func BenchmarkFig6NonIID(b *testing.B) { benchExperiment(b, "fig6", "") }

// ---- Micro-benchmarks: per-round cost of each aggregation rule ----

// benchGrads builds one round's worth of gradients: n clients, d params.
func benchGrads(n, d int) [][]float64 {
	rng := tensor.NewRNG(7)
	out := make([][]float64, n)
	for i := range out {
		out[i] = tensor.RandNormal(rng, d, 0.01, 1)
	}
	return out
}

// BenchmarkRules measures the per-round aggregation cost of every defense
// at the paper's scale (n=50 clients) on a 10k-parameter model.
func BenchmarkRules(b *testing.B) {
	const (
		n = 50
		f = 10
		d = 10000
	)
	grads := benchGrads(n, d)
	rules := []aggregate.Rule{
		aggregate.NewMean(),
		aggregate.NewTrimmedMean(f),
		aggregate.NewMedian(),
		aggregate.NewGeoMed(),
		aggregate.NewMultiKrum(f, n-f),
		aggregate.NewBulyan(f),
		aggregate.NewDnC(f, 1),
		core.NewPlain(1),
		core.NewSim(1),
		core.NewDist(1),
	}
	for _, r := range rules {
		b.Run(r.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.Aggregate(grads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAttacks measures the per-round crafting cost of every attack.
func BenchmarkAttacks(b *testing.B) {
	const (
		nBenign = 40
		nByz    = 10
		d       = 10000
	)
	all := benchGrads(nBenign+nByz, d)
	ctx := &attack.Context{
		Benign: all[:nBenign],
		ByzOwn: all[nBenign:],
		Rng:    tensor.NewRNG(3),
	}
	attacks := []attack.Attack{
		attack.NewRandom(),
		attack.NewNoise(),
		attack.NewSignFlip(),
		attack.NewLIE(0.3),
		attack.NewByzMean(),
		attack.NewMinMax(),
		attack.NewMinSum(),
	}
	for _, a := range attacks {
		b.Run(a.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := a.Craft(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablation benchmarks for SignGuard's design choices ----

// BenchmarkAblationFeatures compares the plain, -Sim and -Dist variants'
// per-round cost (the similarity features add an O(n·d) pass).
func BenchmarkAblationFeatures(b *testing.B) {
	grads := benchGrads(50, 20000)
	variants := map[string]*core.SignGuard{
		"plain": core.NewPlain(1),
		"sim":   core.NewSim(1),
		"dist":  core.NewDist(1),
	}
	for name, sg := range variants {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sg.Aggregate(grads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package aggregate

import (
	"fmt"
	"testing"

	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// benchGrads builds a fixed-seed cohort: n gradients of dimension d with a
// 20% block of displaced outliers, so the selection rules do real work.
func benchGrads(n, d int) [][]float64 {
	grads := honestSet(42, n, d, 0, 1)
	for i := 0; i < n/5; i++ {
		for j := range grads[i] {
			grads[i][j] += 8
		}
	}
	return grads
}

// benchCohorts spans the paper-relevant cohort sizes; benchWorkers spans
// the scaling axis the CI benchmark job tracks.
var (
	benchCohorts = []int{50, 200, 500}
	benchWorkers = []int{1, 2, 4, 8}
)

func benchRule(b *testing.B, dim int, mk func(n, workers int) Rule) {
	for _, n := range benchCohorts {
		grads := benchGrads(n, dim)
		for _, w := range benchWorkers {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				rule := mk(n, w)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := rule.Aggregate(grads); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkKrum(b *testing.B) {
	benchRule(b, 2000, func(n, w int) Rule {
		return &MultiKrum{F: n / 5, M: 1, Workers: w}
	})
}

func BenchmarkMultiKrum(b *testing.B) {
	benchRule(b, 2000, func(n, w int) Rule {
		return &MultiKrum{F: n / 5, M: n / 2, Workers: w}
	})
}

func BenchmarkBulyan(b *testing.B) {
	benchRule(b, 500, func(n, w int) Rule {
		// Bulyan needs n >= 4F+2; F = n/5 leaves θ = 3n/5 selection rounds.
		return &Bulyan{F: n / 5, Workers: w}
	})
}

func BenchmarkDnC(b *testing.B) {
	benchRule(b, 2000, func(n, w int) Rule {
		dnc := NewDnC(n/5, 7)
		dnc.Workers = w
		return dnc
	})
}

func BenchmarkGeoMed(b *testing.B) {
	benchRule(b, 2000, func(n, w int) Rule {
		return &GeoMed{Workers: w}
	})
}

func BenchmarkTrimmedMean(b *testing.B) {
	benchRule(b, 2000, func(n, w int) Rule {
		return &TrimmedMean{K: n / 5, Workers: w}
	})
}

func BenchmarkMedian(b *testing.B) {
	benchRule(b, 2000, func(n, w int) Rule {
		return &Median{Workers: w}
	})
}

func BenchmarkFLTrust(b *testing.B) {
	benchRule(b, 2000, func(n, w int) Rule {
		rule := &FLTrust{Workers: w}
		// The server gradient the engine would install each round: the
		// honest direction, so the trust weighting does real work against
		// the displaced outlier block.
		rule.SetServerGradient(benchGrads(n, 2000)[n-1])
		return rule
	})
}

func BenchmarkFLAME(b *testing.B) {
	benchRule(b, 2000, func(n, w int) Rule {
		rule := NewFLAME(42)
		rule.Workers = w
		return rule
	})
}

func BenchmarkMoM(b *testing.B) {
	benchRule(b, 2000, func(n, w int) Rule {
		return &MedianOfMeans{Workers: w}
	})
}

// sparseGrads is benchGrads with every coordinate outside a per-row random
// subset of density·d zeroed — the shape of a top-k-decoded cohort
// (sim_wide: d = 4550, density 0.1). Density 1 is benchGrads itself.
func sparseGrads(n, d int, density float64) [][]float64 {
	grads := benchGrads(n, d)
	rng := tensor.NewRNG(7)
	keep := int(density * float64(d))
	for _, g := range grads {
		for _, c := range rng.Perm(d)[keep:] {
			g[c] = 0
		}
	}
	return grads
}

// BenchmarkPairwiseDistances measures the distance matrix itself at
// sim_wide's dimension: cohort size × support density × workers. Density
// 0.1 walks the kernel's bitmap path, 1.0 its dense path. Every iteration
// checks one entry against tensor.Distance, so a kernel that drifts fails
// here and not only in the stats tests.
func BenchmarkPairwiseDistances(b *testing.B) {
	const d = 4550
	for _, n := range []int{10, 50, 200} {
		for _, density := range []float64{0.1, 1.0} {
			grads := sparseGrads(n, d, density)
			want, err := tensor.Distance(grads[1], grads[n-1])
			if err != nil {
				b.Fatal(err)
			}
			for _, w := range []int{1, 2} {
				b.Run(fmt.Sprintf("n=%d/density=%.1f/workers=%d", n, density, w), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						dists, err := stats.PairwiseDistancesWorkers(grads, w)
						if err != nil {
							b.Fatal(err)
						}
						if dists[1][n-1] != want || dists[n-1][1] != want {
							b.Fatalf("dists[1][%d] = %v / %v, want %v", n-1, dists[1][n-1], dists[n-1][1], want)
						}
					}
				})
			}
		}
	}
}

// BenchmarkKrumScores measures the distance matrix through its dominant
// consumer: stats.PairwiseDistancesWorkers plus Krum's per-row sort and sum.
func BenchmarkKrumScores(b *testing.B) {
	const n, d = 200, 2000
	grads := benchGrads(n, d)
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			k := &MultiKrum{F: n / 5, M: 1, Workers: w}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := k.Scores(grads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/tensor"
)

// goldenCohort is one fixed server view of TestCatalogAggregateGolden: n
// gradients of dimension dim drawn from seed around a shared signal, the
// last byz of them replaced by outliers (odd ones scaled by 10, even ones
// sign-flipped and scaled by 3), and the Byzantine count f the baselines
// are granted.
type goldenCohort struct {
	name           string
	seed           int64
	n, f, byz, dim int
	spread         float64
}

// goldenCohorts covers an honest round above DnC's catalog subsampling
// dimension (2000) and a round with outliers below it.
var goldenCohorts = []goldenCohort{
	{name: "honest", seed: 51, n: 12, f: 2, dim: 2400, spread: 1.5},
	{name: "outliers", seed: 53, n: 15, f: 3, byz: 4, dim: 300, spread: 1},
}

// goldenCalls is the number of successive Aggregate calls per defense, so
// SignGuard's previous-aggregate reference and FLAME's and DnC's RNG
// streams advance between calls.
const goldenCalls = 6

// rounds draws the cohort's goldenCalls rounds of gradients and, for
// FLTrust, one server gradient per round.
func (gc goldenCohort) rounds() (grads [][][]float64, server [][]float64) {
	rng := tensor.NewRNG(gc.seed)
	signal := tensor.RandNormal(rng, gc.dim, 0, 1)
	for r := 0; r < goldenCalls; r++ {
		round := make([][]float64, gc.n)
		for i := range round {
			g := tensor.Clone(signal)
			for j := range g {
				g[j] += gc.spread * rng.NormFloat64()
			}
			if i >= gc.n-gc.byz {
				if i%2 == 1 {
					tensor.ScaleInPlace(g, 10)
				} else {
					tensor.ScaleInPlace(g, -3)
				}
			}
			round[i] = g
		}
		grads = append(grads, round)
		s := tensor.Clone(signal)
		for j := range s {
			s[j] += 0.5 * rng.NormFloat64()
		}
		server = append(server, s)
	}
	return grads, server
}

// goldenAggregateDigests pins the exact output bits of every Defenses()
// entry: "<entry>/<cohort>" → FNV-64a of the Gradient bits and Selected
// indices of its goldenCalls successive aggregates.
var goldenAggregateDigests = map[string]string{
	"Bulyan/honest":                             "964db09771d615f8",
	"Bulyan/outliers":                           "ad92b2a0f812cc1a",
	"DnC/honest":                                "87c82250e90a5c0a",
	"DnC/outliers":                              "a610f340018b09b1",
	"FLAME/honest":                              "a39ff8d162b55aab",
	"FLAME/outliers":                            "ccd8cf45acb5129d",
	"FLTrust/honest":                            "210866ec2821888d",
	"FLTrust/outliers":                          "89f17a0731afa627",
	"GeoMed/honest":                             "66ac199aff258cae",
	"GeoMed/outliers":                           "0e759176d88112db",
	"Mean/honest":                               "76fd74385cdf32d7",
	"Mean/outliers":                             "322e601e6f16dc71",
	"Median/honest":                             "f09d967b4a4634ab",
	"Median/outliers":                           "b73c36ff4f8b31a9",
	"MoM/honest":                                "da5a7345d43dd1f7",
	"MoM/outliers":                              "11f5055cf5c9ca74",
	"Multi-Krum/honest":                         "37f6aaefee0b91cf",
	"Multi-Krum/outliers":                       "c79f2d7c8f1b1111",
	"SignGuard-Dist/honest":                     "3f1d01eed674d506",
	"SignGuard-Dist/outliers":                   "86d95ae4cd1e8080",
	"SignGuard-Sim/honest":                      "612763824ecbc6e3",
	"SignGuard-Sim/outliers":                    "a72cc7e02f9d8158",
	"SignGuard-Sim[T=- C=- N=yes]/honest":       "e1742ee756b21566",
	"SignGuard-Sim[T=- C=- N=yes]/outliers":     "41f2a1af27791a12",
	"SignGuard-Sim[T=- C=yes N=-]/honest":       "5c105a8b16f156c4",
	"SignGuard-Sim[T=- C=yes N=-]/outliers":     "a2c09dbc840ba9f3",
	"SignGuard-Sim[T=- C=yes N=yes]/honest":     "0da9824437c6111b",
	"SignGuard-Sim[T=- C=yes N=yes]/outliers":   "b68eb3b3d24d4b67",
	"SignGuard-Sim[T=yes C=- N=-]/honest":       "76fd74385cdf32d7",
	"SignGuard-Sim[T=yes C=- N=-]/outliers":     "750fe94131f141f7",
	"SignGuard-Sim[T=yes C=yes N=-]/honest":     "f6f73c850a947940",
	"SignGuard-Sim[T=yes C=yes N=-]/outliers":   "11f5055cf5c9ca74",
	"SignGuard-Sim[T=yes C=yes N=yes]/honest":   "c794da7f5860f0ff",
	"SignGuard-Sim[T=yes C=yes N=yes]/outliers": "4e3660ba3b1c01cf",
	"SignGuard/honest":                          "731e6cdb464f3c05",
	"SignGuard/outliers":                        "028872ed46fb3e42",
	"TrMean/honest":                             "2edcd72793cb9128",
	"TrMean/outliers":                           "4f4ef44d3bb7572c",
}

// TestCatalogAggregateGolden builds every Defenses() entry (the builtin
// catalog and the Table III ablations) at its catalog setting on each
// golden cohort, aggregates goldenCalls successive rounds with one
// instance, and compares the hash of the result bits with a table recorded
// before the defenses' unswept hyperparameters were removed: a refactor of
// the defense catalog must leave every output bit where it was.
func TestCatalogAggregateGolden(t *testing.T) {
	got := map[string]string{}
	for _, gc := range goldenCohorts {
		rounds, server := gc.rounds()
		defs := Defenses()
		for i, name := range defs.Names() {
			key := name + "/" + gc.name
			rule, err := defs.Build(name, defense.Params{N: gc.n, F: gc.f, Seed: gc.seed + int64(i)})
			if err != nil {
				t.Fatalf("%s: build: %v", key, err)
			}
			aggregate.SetWorkers(rule, 1)
			h := fnv.New64a()
			word := func(u uint64) {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], u)
				h.Write(b[:])
			}
			for r, grads := range rounds {
				if sl, ok := aggregate.Unwrap(rule).(aggregate.ServerLearner); ok {
					sl.SetServerGradient(server[r])
				}
				res, err := rule.Aggregate(grads)
				if err != nil {
					t.Fatalf("%s call %d: %v", key, r, err)
				}
				word(uint64(len(res.Gradient)))
				for _, x := range res.Gradient {
					word(math.Float64bits(x))
				}
				word(uint64(len(res.Selected)))
				for _, s := range res.Selected {
					word(uint64(s))
				}
			}
			got[key] = fmt.Sprintf("%016x", h.Sum64())
		}
	}
	for key, sum := range got {
		if want, ok := goldenAggregateDigests[key]; !ok {
			t.Errorf("%q: %q, missing from the table", key, sum)
		} else if sum != want {
			t.Errorf("%q: digest %s, want %s", key, sum, want)
		}
	}
	for key := range goldenAggregateDigests {
		if _, ok := got[key]; !ok {
			t.Errorf("%q: in the table, no longer aggregated", key)
		}
	}
}

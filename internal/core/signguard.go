// Package core implements SignGuard, the paper's contribution: a robust
// gradient aggregation framework that screens the gradients received in a
// federated-learning round through two collaborative filters — a norm band
// around the median norm and a sign-statistics clustering filter — and
// aggregates the intersection of their outputs with norm clipping
// (Algorithm 2, Fig. 3).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// LowerBound and UpperBound are the norm-ratio thresholds L and R of the
// norm filter (paper: L=0.1, R=3.0).
const (
	LowerBound = 0.1
	UpperBound = 3.0
)

// Config parameterizes a SignGuard aggregator. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// CoordFraction is the random coordinate fraction for the sign
	// statistics (paper: 0.1).
	CoordFraction float64
	// Similarity selects the plain / -Sim / -Dist variant.
	Similarity Similarity
	// UseNormFilter enables the norm thresholding filter (Table III row 1).
	UseNormFilter bool
	// UseSignFilter enables the sign clustering filter (Table III row 2).
	UseSignFilter bool
	// UseNormClip enables norm clipping at the median norm during the final
	// aggregation (Table III row 3).
	UseNormClip bool
	// Seed drives the randomized coordinate selection.
	Seed int64
}

// DefaultConfig returns the paper's default SignGuard configuration
// (plain variant: sign statistics only, all components enabled).
func DefaultConfig() Config {
	return Config{
		CoordFraction: 0.1,
		Similarity:    NoSimilarity,
		UseNormFilter: true,
		UseSignFilter: true,
		UseNormClip:   true,
		Seed:          1,
	}
}

// SignGuard is the paper's robust gradient aggregation rule. It implements
// aggregate.Rule so it can be dropped in anywhere the baseline GARs are
// used. The aggregator is stateful across rounds: it remembers the previous
// aggregate as the similarity reference. It is not safe for concurrent use.
type SignGuard struct {
	cfg Config
	rng *rand.Rand

	prevAgg []float64
}

var _ aggregate.Rule = (*SignGuard)(nil)

// New builds a SignGuard aggregator from the configuration.
func New(cfg Config) (*SignGuard, error) {
	if !cfg.UseNormFilter && !cfg.UseSignFilter && !cfg.UseNormClip {
		return nil, errors.New("core: SignGuard needs at least one component enabled")
	}
	if cfg.UseSignFilter && (cfg.CoordFraction <= 0 || cfg.CoordFraction > 1) {
		return nil, fmt.Errorf("core: coordinate fraction %v out of (0,1]", cfg.CoordFraction)
	}
	return &SignGuard{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// NewPlain returns SignGuard with the paper's default configuration.
func NewPlain(seed int64) *SignGuard {
	cfg := DefaultConfig()
	cfg.Seed = seed
	sg, err := New(cfg)
	if err != nil { // cannot happen: DefaultConfig is valid
		panic(err)
	}
	return sg
}

// NewSim returns SignGuard-Sim (cosine-similarity feature).
func NewSim(seed int64) *SignGuard {
	cfg := DefaultConfig()
	cfg.Similarity = CosineSimilarity
	cfg.Seed = seed
	sg, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return sg
}

// NewDist returns SignGuard-Dist (Euclidean-distance feature).
func NewDist(seed int64) *SignGuard {
	cfg := DefaultConfig()
	cfg.Similarity = DistanceSimilarity
	cfg.Seed = seed
	sg, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return sg
}

// Name implements aggregate.Rule.
func (sg *SignGuard) Name() string {
	switch sg.cfg.Similarity {
	case CosineSimilarity:
		return "SignGuard-Sim"
	case DistanceSimilarity:
		return "SignGuard-Dist"
	default:
		return "SignGuard"
	}
}

// Aggregate implements aggregate.Rule (Algorithm 2): it runs the enabled
// filters — the norm band (step 1), then the sign clustering (step 2), the
// only one that draws from the rule's rng — takes the intersection of their
// kept sets, and returns the (optionally norm-clipped) mean of the trusted
// gradients (step 3).
func (sg *SignGuard) Aggregate(grads [][]float64) (*aggregate.Result, error) {
	if len(grads) == 0 {
		return nil, errors.New("core: no gradients")
	}
	d := len(grads[0])
	norms := make([]float64, len(grads))
	for i, g := range grads {
		if len(g) != d {
			return nil, fmt.Errorf("core: gradient %d has %d dims, want %d", i, len(g), d)
		}
		var s float64
		for _, x := range g {
			s += x * x
		}
		norms[i] = math.Sqrt(s)
	}
	// The median norm M: the norm band's reference and the clipping bound.
	med, err := stats.Median(norms)
	if err != nil {
		return nil, err
	}

	// Each enabled filter's kept set and S' = S1 ∩ S2. Neither filter
	// returns an empty set: each errors instead.
	var normKept, signKept []int
	selected := allIndices(len(grads))
	if sg.cfg.UseNormFilter {
		if normKept, err = normBand(norms, med); err != nil {
			return nil, fmt.Errorf("core: filter norm-threshold: %w", err)
		}
		selected = normKept
	}
	if sg.cfg.UseSignFilter {
		features, err := signFeatures(grads, sg.prevAgg, sg.cfg.CoordFraction, sg.cfg.Similarity, sg.rng)
		if err == nil {
			signKept, err = signCluster(features)
		}
		if err != nil {
			return nil, fmt.Errorf("core: filter sign-cluster(%v): %w", sg.cfg.Similarity, err)
		}
		selected = intersect(selected, signKept)
	}
	if len(selected) == 0 {
		// The filters disagree completely (only possible with both on).
		// Rather than failing the round — which would stall training —
		// trust the sign filter's set.
		selected = signKept
	}

	// Aggregation (Algorithm 2, step 3): mean of the trusted gradients,
	// each clipped to the median norm.
	sum := make([]float64, d)
	for _, i := range selected {
		scale := 1.0
		if sg.cfg.UseNormClip && norms[i] > med && norms[i] > 0 {
			scale = med / norms[i]
		}
		if err := tensor.Axpy(sum, scale, grads[i]); err != nil {
			return nil, err
		}
	}
	tensor.ScaleInPlace(sum, 1/float64(len(selected)))

	sg.prevAgg = tensor.Clone(sum)
	return &aggregate.Result{Gradient: sum, Selected: selected}, nil
}

// normBand is Algorithm 2, step 1: it keeps gradient i iff
// LowerBound ≤ ||g_i|| / med ≤ UpperBound, ascending. The paper uses a
// loose lower bound (small gradients do little harm) and a strict upper
// bound (a significantly large gradient is malicious).
func normBand(norms []float64, med float64) ([]int, error) {
	keep := make([]int, 0, len(norms))
	if med == 0 {
		// All-zero median norm: every gradient with zero norm is "at the
		// median"; accept those, reject the rest (they are outliers by
		// construction).
		for i, n := range norms {
			if n == 0 {
				keep = append(keep, i)
			}
		}
		if len(keep) == 0 {
			return nil, errors.New("core: norm filter rejected all gradients (zero median)")
		}
		return keep, nil
	}
	for i, n := range norms {
		if ratio := n / med; ratio >= LowerBound && ratio <= UpperBound {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		return nil, errors.New("core: norm filter rejected all gradients")
	}
	return keep, nil
}

// intersect returns the sorted intersection of two ascending index sets.
func intersect(a, b []int) []int {
	set := make(map[int]struct{}, len(a))
	for _, x := range a {
		set[x] = struct{}{}
	}
	var out []int
	for _, x := range b {
		if _, ok := set[x]; ok {
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

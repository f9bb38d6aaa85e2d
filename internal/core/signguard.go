package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/tensor"
)

// Config parameterizes a SignGuard aggregator. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// LowerBound and UpperBound are the norm-ratio thresholds L and R of
	// the norm filter (paper: L=0.1, R=3.0).
	LowerBound, UpperBound float64
	// CoordFraction is the random coordinate fraction for the sign
	// statistics (paper: 0.1).
	CoordFraction float64
	// Similarity selects the plain / -Sim / -Dist variant.
	Similarity Similarity
	// Algo selects the clustering algorithm of the sign filter.
	Algo ClusterAlgo
	// Bandwidth overrides the Mean-Shift bandwidth; <= 0 auto-estimates.
	Bandwidth float64
	// UseNormFilter enables the norm thresholding filter (Table III row 1).
	UseNormFilter bool
	// UseSignFilter enables the sign clustering filter (Table III row 2).
	UseSignFilter bool
	// UseNormClip enables norm clipping at the median norm during the final
	// aggregation (Table III row 3).
	UseNormClip bool
	// Seed drives the randomized coordinate selection and clustering.
	Seed int64
}

// DefaultConfig returns the paper's default SignGuard configuration
// (plain variant: sign statistics only, all components enabled).
func DefaultConfig() Config {
	return Config{
		LowerBound:    0.1,
		UpperBound:    3.0,
		CoordFraction: 0.1,
		Similarity:    NoSimilarity,
		Algo:          MeanShiftAlgo,
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
	cfg     Config
	rng     *rand.Rand
	filters []Filter

	prevAgg []float64
}

var _ aggregate.Rule = (*SignGuard)(nil)

// New builds a SignGuard aggregator from the configuration.
func New(cfg Config) (*SignGuard, error) {
	if !cfg.UseNormFilter && !cfg.UseSignFilter && !cfg.UseNormClip {
		return nil, errors.New("core: SignGuard needs at least one component enabled")
	}
	if cfg.UseNormFilter && (cfg.LowerBound < 0 || cfg.UpperBound <= cfg.LowerBound) {
		return nil, fmt.Errorf("core: norm bounds [%v,%v] invalid", cfg.LowerBound, cfg.UpperBound)
	}
	if cfg.UseSignFilter && (cfg.CoordFraction <= 0 || cfg.CoordFraction > 1) {
		return nil, fmt.Errorf("core: coordinate fraction %v out of (0,1]", cfg.CoordFraction)
	}
	sg := &SignGuard{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.UseNormFilter {
		sg.filters = append(sg.filters, NewNormThresholdFilter(cfg.LowerBound, cfg.UpperBound))
	}
	if cfg.UseSignFilter {
		f := NewSignClusterFilter(cfg.CoordFraction, cfg.Similarity)
		f.Algo = cfg.Algo
		if f.Algo == 0 {
			f.Algo = MeanShiftAlgo
		}
		f.Bandwidth = cfg.Bandwidth
		sg.filters = append(sg.filters, f)
	}
	return sg, nil
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

// Aggregate implements aggregate.Rule: it runs the enabled filters, takes
// the intersection of their accepted sets, and returns the (optionally
// norm-clipped) mean of the trusted gradients.
func (sg *SignGuard) Aggregate(grads [][]float64) (*aggregate.Result, error) {
	ctx, err := NewFilterContext(grads, sg.prevAgg, sg.rng)
	if err != nil {
		return nil, err
	}
	// Each filter's accepted set (nil when disabled) and S' = S1 ∩ S2.
	var normKept, signKept []int
	selected := allIndices(len(grads))
	for _, f := range sg.filters {
		kept, err := f.Apply(ctx)
		if err != nil {
			return nil, fmt.Errorf("core: filter %s: %w", f.Name(), err)
		}
		switch f.(type) {
		case *NormThresholdFilter:
			normKept = kept
		case *SignClusterFilter:
			signKept = kept
		}
		selected = intersect(selected, kept)
	}
	if len(selected) == 0 {
		// The filters disagree completely. Rather than failing the round —
		// which would stall training — fall back to the most conservative
		// single filter output available, preferring the sign filter.
		switch {
		case len(signKept) > 0:
			selected = append([]int(nil), signKept...)
		case len(normKept) > 0:
			selected = append([]int(nil), normKept...)
		default:
			return nil, errors.New("core: all gradients filtered out")
		}
	}
	sort.Ints(selected)

	// Aggregation (Algorithm 2, step 3): mean of the trusted gradients,
	// each clipped to the median norm.
	sum := make([]float64, len(grads[0]))
	for _, i := range selected {
		g := grads[i]
		scale := 1.0
		if sg.cfg.UseNormClip && ctx.Norms[i] > ctx.MedianNorm && ctx.Norms[i] > 0 {
			scale = ctx.MedianNorm / ctx.Norms[i]
		}
		if err := tensor.Axpy(sum, scale, g); err != nil {
			return nil, err
		}
	}
	tensor.ScaleInPlace(sum, 1/float64(len(selected)))

	sg.prevAgg = tensor.Clone(sum)
	return &aggregate.Result{Gradient: sum, Selected: selected}, nil
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

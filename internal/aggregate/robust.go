package aggregate

import (
	"fmt"
	"math"

	"github.com/signguard/signguard/internal/parallel"
	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// TrimmedMean is the coordinate-wise trimmed mean of Yin et al. (ICML'18):
// per coordinate, drop the K smallest and K largest values and average the
// rest. K is normally set to the (assumed known) number of Byzantine
// clients — an advantage the paper grants the baselines but that SignGuard
// does not need.
type TrimmedMean struct {
	// K is the per-side trim count; the rule requires n > 2K.
	K int
	// Workers bounds the kernel parallelism (0 = automatic, 1 = sequential);
	// the output is byte-identical for any value.
	Workers int
}

var _ Rule = (*TrimmedMean)(nil)
var _ WorkersSetter = (*TrimmedMean)(nil)

// NewTrimmedMean returns a trimmed-mean rule trimming k from each side.
func NewTrimmedMean(k int) *TrimmedMean { return &TrimmedMean{K: k} }

// Name implements Rule.
func (*TrimmedMean) Name() string { return "TrMean" }

// SetWorkers implements WorkersSetter.
func (t *TrimmedMean) SetWorkers(n int) { t.Workers = n }

// Aggregate implements Rule.
func (t *TrimmedMean) Aggregate(grads [][]float64) (*Result, error) {
	if _, err := validate(grads); err != nil {
		return nil, err
	}
	if t.K < 0 || len(grads) <= 2*t.K {
		return nil, fmt.Errorf("aggregate: TrMean needs n > 2K (n=%d, K=%d)", len(grads), t.K)
	}
	g, err := stats.CoordinateTrimmedMeanWorkers(grads, t.K, parallel.Resolve(t.Workers))
	if err != nil {
		return nil, err
	}
	return &Result{Gradient: g}, nil
}

// Median is the coordinate-wise median rule of Yin et al.
type Median struct {
	// Workers bounds the kernel parallelism (0 = automatic, 1 = sequential);
	// the output is byte-identical for any value.
	Workers int
}

var _ Rule = (*Median)(nil)
var _ WorkersSetter = (*Median)(nil)

// NewMedian returns the coordinate-wise median rule.
func NewMedian() *Median { return &Median{} }

// Name implements Rule.
func (*Median) Name() string { return "Median" }

// SetWorkers implements WorkersSetter.
func (m *Median) SetWorkers(n int) { m.Workers = n }

// Aggregate implements Rule.
func (m *Median) Aggregate(grads [][]float64) (*Result, error) {
	if _, err := validate(grads); err != nil {
		return nil, err
	}
	g, err := stats.CoordinateMedianWorkers(grads, parallel.Resolve(m.Workers))
	if err != nil {
		return nil, err
	}
	return &Result{Gradient: g}, nil
}

// GeoMed's Weiszfeld iterations stop once one moves the estimate less than
// geoMedTol, or after geoMedMaxIter of them.
const (
	geoMedMaxIter = 100
	geoMedTol     = 1e-8
)

// GeoMed approximates the geometric median — the point minimizing the sum
// of Euclidean distances to all gradients — with Weiszfeld's algorithm.
type GeoMed struct {
	// Workers bounds the kernel parallelism (0 = automatic, 1 = sequential);
	// the output is byte-identical for any value.
	Workers int
}

var _ Rule = (*GeoMed)(nil)
var _ WorkersSetter = (*GeoMed)(nil)

// NewGeoMed returns a geometric-median rule with default settings.
func NewGeoMed() *GeoMed { return &GeoMed{} }

// Name implements Rule.
func (*GeoMed) Name() string { return "GeoMed" }

// SetWorkers implements WorkersSetter.
func (g *GeoMed) SetWorkers(n int) { g.Workers = n }

// Aggregate implements Rule.
func (g *GeoMed) Aggregate(grads [][]float64) (*Result, error) {
	if _, err := validate(grads); err != nil {
		return nil, err
	}
	workers := parallel.Resolve(g.Workers)
	// Weiszfeld: start at the mean, iterate inverse-distance reweighting.
	x, err := tensor.MeanWorkers(grads, workers)
	if err != nil {
		return nil, err
	}
	w := make([]float64, len(grads))
	// Per-worker coincidence flags, OR-merged after each join: a boolean
	// union is insensitive to chunk boundaries.
	hit := make([]bool, workers)
	for it := 0; it < geoMedMaxIter; it++ {
		for i := range hit {
			hit[i] = false
		}
		parallel.For(workers, len(grads), func(wk, start, end int) {
			// w first holds the squared distances, then the weights.
			if err := tensor.SquaredDistancesTo(w[start:end], x, grads[start:end]); err != nil {
				panic(err) // unreachable: dims validated above
			}
			for i := start; i < end; i++ {
				dist := math.Sqrt(w[i])
				if dist < 1e-12 {
					// Current estimate coincides with a data point;
					// Weiszfeld's weight is singular there. Nudge with a
					// tiny epsilon.
					dist = 1e-12
					hit[wk] = true
				}
				w[i] = 1 / dist
			}
		})
		var coincident bool
		for _, h := range hit {
			coincident = coincident || h
		}
		next, err := tensor.WeightedMeanWorkers(grads, w, workers)
		if err != nil {
			return nil, err
		}
		move, err := tensor.Distance(next, x)
		if err != nil {
			return nil, err
		}
		x = next
		if move < geoMedTol || coincident {
			break
		}
	}
	return &Result{Gradient: x}, nil
}

package aggregate

import (
	"errors"
	"math"

	"github.com/signguard/signguard/internal/parallel"
	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// ServerLearner is implemented by rules that aggregate against a server-side
// reference gradient computed on a small root dataset each round (Cao et
// al.'s FLTrust family). The fl engine detects the interface (through
// aggregate.Unwrap, since registry-built rules arrive guarded), provisions a
// root dataset of RootSize examples on the server, and calls
// SetServerGradient with a fresh root gradient before every Aggregate.
type ServerLearner interface {
	// RootSize returns the number of root-dataset examples the rule wants
	// the server to hold.
	RootSize() int
	// SetServerGradient installs the round's reference gradient. The rule
	// must not mutate it.
	SetServerGradient(g []float64)
}

// ErrNoServerGradient is returned by a ServerLearner rule asked to
// aggregate before any reference gradient was installed.
var ErrNoServerGradient = errors.New("aggregate: no server gradient installed")

// FLTrust is the server-learning defense of Cao et al. (NDSS'21): the
// server computes its own gradient g₀ on a small root dataset, scores every
// client update by the clipped cosine similarity TSᵢ = max(0, cos(gᵢ, g₀))
// (the canonical ReLU cut: scores at or below 0 are zeroed), rescales each
// trusted update to the reference norm ‖g₀‖, and averages with the trust
// scores as weights. A round in which no client earns trust yields the zero
// update. The server samples a root dataset of fltrustRootSize examples.
type FLTrust struct {
	// Workers bounds the kernel parallelism (0 = automatic, 1 = sequential);
	// the output is byte-identical for any value.
	Workers int

	server []float64
}

var (
	_ Rule          = (*FLTrust)(nil)
	_ WorkersSetter = (*FLTrust)(nil)
	_ ServerLearner = (*FLTrust)(nil)
)

// fltrustRootSize is the root-dataset size an FLTrust server samples.
const fltrustRootSize = 100

// NewFLTrust returns an FLTrust rule.
func NewFLTrust() *FLTrust {
	return &FLTrust{}
}

// Name implements Rule.
func (*FLTrust) Name() string { return "FLTrust" }

// SetWorkers implements WorkersSetter.
func (f *FLTrust) SetWorkers(n int) { f.Workers = n }

// RootSize implements ServerLearner.
func (*FLTrust) RootSize() int { return fltrustRootSize }

// SetServerGradient implements ServerLearner.
func (f *FLTrust) SetServerGradient(g []float64) { f.server = g }

// Aggregate implements Rule.
func (f *FLTrust) Aggregate(grads [][]float64) (*Result, error) {
	d, err := validate(grads)
	if err != nil {
		return nil, err
	}
	if f.server == nil {
		return nil, ErrNoServerGradient
	}
	if len(f.server) != d {
		return nil, tensor.ErrDimensionMismatch
	}
	refNorm := tensor.Norm(f.server)
	workers := parallel.Resolve(f.Workers)

	// Per-client trust scores and rescale factors: each entry depends only
	// on its own gradient and the shared reference, so the parallel split is
	// trivially worker-count independent.
	trust := make([]float64, len(grads))
	rescale := make([]float64, len(grads))
	parallel.For(workers, len(grads), func(_, start, end int) {
		for i := start; i < end; i++ {
			cos, err := stats.CosineSimilarity(grads[i], f.server)
			if err != nil || math.IsNaN(cos) {
				continue // zero trust
			}
			if cos > 0 {
				trust[i] = cos
				if n := tensor.Norm(grads[i]); n > 0 {
					rescale[i] = refNorm / n
				}
			}
		}
	})

	var total float64
	selected := make([]int, 0, len(grads))
	weights := make([]float64, len(grads))
	for i, ts := range trust {
		if ts > 0 {
			selected = append(selected, i)
			weights[i] = ts * rescale[i]
			total += ts
		}
	}
	if total == 0 || !tensor.AllFinite(weights) {
		// No client earned trust (or the scores overflowed): FLTrust applies
		// the zero update rather than guessing.
		return &Result{Gradient: make([]float64, d), Selected: selected}, nil
	}
	// The FLTrust aggregate is Σ TSᵢ·rescaleᵢ·gᵢ / Σ TSᵢ. WeightedMeanWorkers
	// normalizes by its own weight sum, so pre-divide the weights by the
	// trust total and undo its normalizer afterwards.
	for i := range weights {
		weights[i] /= total
	}
	wsum := weightSum(weights)
	if wsum == 0 {
		// Every trusted update had zero norm: nothing to apply.
		return &Result{Gradient: make([]float64, d), Selected: selected}, nil
	}
	g, err := tensor.WeightedMeanWorkers(grads, weights, workers)
	if err != nil {
		return nil, err
	}
	tensor.ScaleInPlace(g, wsum)
	return &Result{Gradient: g, Selected: selected}, nil
}

// weightSum is the plain sequential sum WeightedMeanWorkers normalizes by.
func weightSum(w []float64) float64 {
	var s float64
	for _, v := range w {
		s += v
	}
	return s
}

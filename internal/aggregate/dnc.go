package aggregate

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/signguard/signguard/internal/parallel"
	"github.com/signguard/signguard/internal/tensor"
)

// DnC implements Divide-and-Conquer spectral filtering (Shejwalkar &
// Houmansadr, NDSS'21). Each iteration subsamples a random block of
// coordinates, centers the subsampled gradients, computes their dominant
// right singular vector by power iteration, scores every gradient by its
// squared projection onto that direction, and discards the F
// highest-scoring gradients. The final trusted set is the intersection
// across dncIters iterations, aggregated by plain averaging.
type DnC struct {
	// F is the assumed Byzantine count.
	F int
	// SubDim is the number of coordinates sampled per iteration, capped at
	// the gradient dimension (default 2000).
	SubDim int
	// Workers bounds the kernel parallelism (0 = automatic, 1 = sequential);
	// the output is byte-identical for any value. The coordinate
	// subsampling RNG is consumed on the serial path only, so it is
	// untouched by the worker count.
	Workers int

	rng *rand.Rand
}

var _ Rule = (*DnC)(nil)
var _ WorkersSetter = (*DnC)(nil)

// dncIters is the number of DnC filtering iterations.
const dncIters = 3

// NewDnC returns a DnC rule with the given Byzantine count and the default
// SubDim, seeded for deterministic coordinate subsampling. The default
// subsamples fewer coordinates than the reference implementation's 10000:
// the models here are orders of magnitude smaller than ResNet-18, and a
// sweep's budget is dominated by the power iteration.
func NewDnC(f int, seed int64) *DnC {
	return &DnC{F: f, SubDim: 2000, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Rule.
func (*DnC) Name() string { return "DnC" }

// SetWorkers implements WorkersSetter.
func (a *DnC) SetWorkers(n int) { a.Workers = n }

// Aggregate implements Rule.
func (a *DnC) Aggregate(grads [][]float64) (*Result, error) {
	n := len(grads)
	d, err := validate(grads)
	if err != nil {
		return nil, err
	}
	remove := a.F
	if remove < 0 {
		return nil, fmt.Errorf("aggregate: DnC removal count %d invalid", remove)
	}
	if remove >= n {
		return nil, fmt.Errorf("aggregate: DnC would remove all %d gradients (F=%d)", n, remove)
	}
	subDim := a.SubDim
	if subDim <= 0 || subDim > d {
		subDim = d
	}
	if a.rng == nil {
		a.rng = rand.New(rand.NewSource(1))
	}
	workers := parallel.Resolve(a.Workers)

	good := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		good[i] = true
	}
	for it := 0; it < dncIters; it++ {
		coords := tensor.SampleIndices(a.rng, d, subDim)
		sub := tensor.NewMatrix(n, subDim)
		// Sub-matrix rows gather independent coordinates per gradient.
		parallel.For(workers, n, func(_, start, end int) {
			for i := start; i < end; i++ {
				row := sub.Row(i)
				g := grads[i]
				for j, c := range coords {
					row[j] = g[c]
				}
			}
		})
		sub.CenterRowsWorkers(workers)
		v := sub.TopSingularVectorWorkers(50, 1e-9, workers)
		scores := make([]float64, n)
		// Each score is one sequential dot product of the gradient's own
		// centered row with the singular direction.
		parallel.For(workers, n, func(_, start, end int) {
			for i := start; i < end; i++ {
				p, err := tensor.Dot(sub.Row(i), v)
				if err != nil { // unreachable: row and v share subDim
					panic(err)
				}
				scores[i] = p * p
			}
		})
		// Keep the n - remove lowest-scoring gradients this iteration.
		order := argsort(scores)
		keep := make(map[int]bool, n-remove)
		for _, idx := range order[:n-remove] {
			keep[idx] = true
		}
		for i := range good {
			if !keep[i] {
				delete(good, i)
			}
		}
	}
	if len(good) == 0 {
		return nil, fmt.Errorf("aggregate: DnC filtered out every gradient")
	}
	selected := make([]int, 0, len(good))
	for i := range good {
		selected = append(selected, i)
	}
	sort.Ints(selected)
	chosen := make([][]float64, len(selected))
	for i, idx := range selected {
		chosen[i] = grads[idx]
	}
	g, err := tensor.MeanWorkers(chosen, workers)
	if err != nil {
		return nil, err
	}
	return &Result{Gradient: g, Selected: selected}, nil
}

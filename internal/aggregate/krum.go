package aggregate

import (
	"fmt"
	"math"
	"sort"

	"github.com/signguard/signguard/internal/parallel"
	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// MultiKrum implements Krum and Multi-Krum (Blanchard et al., NeurIPS'17).
// Each gradient is scored by the sum of squared distances to its n-F-2
// nearest neighbours; the M lowest-scoring gradients are selected and
// averaged (M=1 recovers plain Krum). F is the assumed number of Byzantine
// clients.
type MultiKrum struct {
	// F is the assumed Byzantine count.
	F int
	// M is the number of gradients selected and averaged (>= 1).
	M int
	// Workers bounds the kernel parallelism (0 = automatic, 1 = sequential);
	// the output is byte-identical for any value.
	Workers int
}

var _ Rule = (*MultiKrum)(nil)
var _ WorkersSetter = (*MultiKrum)(nil)

// NewMultiKrum returns Multi-Krum selecting m gradients (m = 1 is Krum).
func NewMultiKrum(f, m int) *MultiKrum { return &MultiKrum{F: f, M: m} }

// Name implements Rule.
func (k *MultiKrum) Name() string {
	if k.M <= 1 {
		return "Krum"
	}
	return "Multi-Krum"
}

// SetWorkers implements WorkersSetter.
func (k *MultiKrum) SetWorkers(n int) { k.Workers = n }

// Scores returns the Krum score of every gradient (exported for analysis
// and tests). Lower is "more trusted".
func (k *MultiKrum) Scores(grads [][]float64) ([]float64, error) {
	n := len(grads)
	if _, err := validate(grads); err != nil {
		return nil, err
	}
	// Krum needs n >= 2F+3 so that n-F-2 >= F+1 neighbours exist.
	if n < 2*k.F+3 {
		return nil, fmt.Errorf("aggregate: Krum needs n >= 2F+3 (n=%d, F=%d)", n, k.F)
	}
	workers := parallel.Resolve(k.Workers)
	dists, err := stats.PairwiseDistancesWorkers(grads, workers)
	if err != nil {
		return nil, err
	}
	closest := n - k.F - 2
	scores := make([]float64, n)
	// Each gradient's score depends only on its own distance row, so the
	// rows parallelize freely; every row keeps its sequential sort+sum.
	parallel.For(workers, n, func(_, start, end int) {
		row := make([]float64, 0, n-1)
		for i := start; i < end; i++ {
			row = row[:0]
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				row = append(row, dists[i][j]*dists[i][j])
			}
			sort.Float64s(row)
			var s float64
			for _, d2 := range row[:closest] {
				s += d2
			}
			scores[i] = s
		}
	})
	return scores, nil
}

// Aggregate implements Rule.
func (k *MultiKrum) Aggregate(grads [][]float64) (*Result, error) {
	scores, err := k.Scores(grads)
	if err != nil {
		return nil, err
	}
	m := k.M
	if m < 1 {
		m = 1
	}
	if m > len(grads) {
		m = len(grads)
	}
	order := argsort(scores)
	selected := append([]int(nil), order[:m]...)
	sort.Ints(selected)
	chosen := make([][]float64, len(selected))
	for i, idx := range selected {
		chosen[i] = grads[idx]
	}
	g, err := tensor.MeanWorkers(chosen, parallel.Resolve(k.Workers))
	if err != nil {
		return nil, err
	}
	return &Result{Gradient: g, Selected: selected}, nil
}

// Bulyan implements El Mhamdi et al. (ICML'18): it first builds a selection
// set of θ = n - 2F gradients by repeatedly applying Krum, then aggregates
// them with a coordinate-wise "beta-trimmed" mean around the median, using
// β = θ - 2F values per coordinate.
type Bulyan struct {
	// F is the assumed Byzantine count.
	F int
	// Workers bounds the kernel parallelism (0 = automatic, 1 = sequential);
	// the output is byte-identical for any value.
	Workers int
}

var _ Rule = (*Bulyan)(nil)
var _ WorkersSetter = (*Bulyan)(nil)

// NewBulyan returns a Bulyan rule assuming f Byzantine clients.
func NewBulyan(f int) *Bulyan { return &Bulyan{F: f} }

// Name implements Rule.
func (*Bulyan) Name() string { return "Bulyan" }

// SetWorkers implements WorkersSetter.
func (b *Bulyan) SetWorkers(n int) { b.Workers = n }

// krumCand is one candidate of a Bulyan selection iteration: its position
// in the remaining list and its Krum score.
type krumCand struct {
	li    int
	score float64
}

// Aggregate implements Rule.
func (b *Bulyan) Aggregate(grads [][]float64) (*Result, error) {
	n := len(grads)
	if _, err := validate(grads); err != nil {
		return nil, err
	}
	theta := n - 2*b.F
	beta := theta - 2*b.F
	if theta < 1 || beta < 1 {
		return nil, fmt.Errorf("aggregate: Bulyan needs n >= 4F+2 (n=%d, F=%d)", n, b.F)
	}
	workers := parallel.Resolve(b.Workers)

	// Selection stage: repeatedly pick the Krum winner among the remaining
	// gradients. The pairwise distances are computed once and reused across
	// the theta selection iterations — the gradients never change, only the
	// candidate set shrinks. When the remainder becomes too small for
	// Krum's n >= 2F+3 requirement we fall back to the smallest total
	// distance to the remaining set, which preserves the spirit of the
	// selection while remaining well-defined.
	dists, err := stats.PairwiseDistancesWorkers(grads, workers)
	if err != nil {
		return nil, err
	}
	remaining := allIndices(n)
	selected := make([]int, 0, theta)
	for len(selected) < theta {
		closest := len(remaining) - b.F - 2
		useKrum := closest >= 1 && len(remaining) >= 2*b.F+3
		// Candidate scores are independent of each other, so they chunk
		// across workers; the merge is an argmin whose first-wins tie-break
		// matches the sequential scan, for any chunk boundaries.
		best := parallel.Reduce(workers, len(remaining),
			func(_, start, end int) krumCand {
				row := make([]float64, 0, len(remaining))
				chunkBest := krumCand{li: start, score: math.Inf(1)}
				for li := start; li < end; li++ {
					i := remaining[li]
					row = row[:0]
					for _, j := range remaining {
						if j == i {
							continue
						}
						row = append(row, dists[i][j]*dists[i][j])
					}
					var score float64
					if useKrum {
						sort.Float64s(row)
						for _, d2 := range row[:closest] {
							score += d2
						}
					} else {
						for _, d2 := range row {
							score += d2
						}
					}
					if score < chunkBest.score {
						chunkBest = krumCand{li: li, score: score}
					}
				}
				return chunkBest
			},
			func(a, c krumCand) krumCand {
				if c.score < a.score {
					return c
				}
				return a
			},
		)
		selected = append(selected, remaining[best.li])
		remaining = append(remaining[:best.li], remaining[best.li+1:]...)
	}
	sort.Ints(selected)

	// Aggregation stage: per coordinate, average the beta values closest to
	// the median of the selected gradients. Coordinates are independent, so
	// they chunk across workers with per-worker scratch buffers.
	d := len(grads[0])
	out := make([]float64, d)
	parallel.For(workers, d, func(_, start, end int) {
		col := make([]float64, theta)
		vd := make([]valDist, theta)
		for j := start; j < end; j++ {
			for i, idx := range selected {
				col[i] = grads[idx][j]
			}
			med, err := stats.Median(col)
			if err != nil { // unreachable: theta >= 1
				panic(err)
			}
			for i, v := range col {
				vd[i] = valDist{v: v, dist: math.Abs(v - med)}
			}
			sort.Slice(vd, func(a, c int) bool { return vd[a].dist < vd[c].dist })
			var s float64
			for i := 0; i < beta; i++ {
				s += vd[i].v
			}
			out[j] = s / float64(beta)
		}
	})
	return &Result{Gradient: out, Selected: selected}, nil
}

// valDist pairs a coordinate value with its distance to the column median.
type valDist struct {
	v, dist float64
}

// argsort returns the indices that would sort xs ascending.
func argsort(xs []float64) []int {
	idx := allIndices(len(xs))
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx
}

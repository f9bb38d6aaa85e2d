// Package parallel provides the shared deterministic fork/join helpers used
// by the simulation engine, the aggregation kernels and the campaign
// scheduler. It replaces the hand-rolled goroutine pools those packages
// used to carry individually, and it encodes the repo-wide reduction
// discipline that keeps every parallel path byte-identical to its
// sequential counterpart:
//
//   - Work is partitioned by a pure function of (n, workers) — never by
//     racing on a shared counter — so which worker computes what is fixed
//     before any goroutine starts.
//   - Partial results land in pre-assigned, non-overlapping slots and are
//     merged in index order after the join.
//   - Floating-point accumulations are never reassociated: kernels only
//     parallelize across independent outputs (matrix rows, gradient
//     coordinates, candidate scores) and keep every float sum in the same
//     sequential order the single-threaded code used. Reduce is reserved
//     for merges that are insensitive to chunk boundaries (argmin with a
//     first-wins tie-break, slice concatenation, boolean OR).
//
// Under this discipline the worker count changes wall-clock time only;
// results are bit-for-bit identical for any Workers value.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
)

// Resolve maps a Workers knob to an effective worker count: values <= 0
// mean "automatic" (one worker per usable CPU); positive values are used
// as-is.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Default returns the automatic worker count — the value a -workers flag
// should default to. It is the single definition of "use all CPUs" shared
// by cmd/campaign and the campaign engine.
func Default() int { return runtime.GOMAXPROCS(0) }

// ValidateWorkers rejects worker counts below 1. The cmd binaries call it
// on their -workers flags so a nonsensical value fails loudly instead of
// silently falling back to some other count.
func ValidateWorkers(n int) error {
	if n < 1 {
		return fmt.Errorf("parallel: workers must be >= 1, got %d (the default %d uses every CPU)", n, Default())
	}
	return nil
}

// Run invokes fn(w) for every w in [0, workers) concurrently and waits for
// all of them. Run(1, fn) calls fn inline with no goroutine.
func Run(workers int, fn func(w int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// Chunk returns the half-open sub-range of [0, n) owned by worker w of
// `workers`: the chunks are contiguous, cover [0, n) in worker order, and
// differ in size by at most one element.
func Chunk(n, workers, w int) (start, end int) {
	return w * n / workers, (w + 1) * n / workers
}

// For splits [0, n) into one contiguous chunk per worker (see Chunk) and
// processes the chunks concurrently; fn receives the worker index and its
// half-open range. The worker count is clamped to n so every chunk is
// non-empty, and a single worker runs inline.
func For(workers, n int, fn func(w, start, end int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	Run(workers, func(w int) {
		start, end := Chunk(n, workers, w)
		fn(w, start, end)
	})
}

// ForStrided processes [0, n) with worker w handling indices w, w+workers,
// w+2·workers, … Use it instead of For where per-index cost varies
// systematically with the index (e.g. the triangular row loop of a pairwise
// distance matrix), so contiguous chunks would unbalance the load.
func ForStrided(workers, n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	Run(workers, func(w int) {
		for i := w; i < n; i += workers {
			fn(w, i)
		}
	})
}

// Reduce computes one partial value per chunk (same partition as For) and
// folds the partials left-to-right in chunk order. Because the partition
// depends on the worker count, merge must be insensitive to where the
// chunk boundaries fall — argmin with a first-wins tie-break, slice
// concatenation, set union, boolean OR. Floating-point sums are NOT in
// that class (reassociating a sum changes its rounding); keep those
// sequential per output coordinate instead.
func Reduce[T any](workers, n int, part func(w, start, end int) T, merge func(acc, next T) T) T {
	var zero T
	if n <= 0 {
		return zero
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return part(0, 0, n)
	}
	partials := make([]T, workers)
	Run(workers, func(w int) {
		start, end := Chunk(n, workers, w)
		partials[w] = part(w, start, end)
	})
	acc := partials[0]
	for w := 1; w < workers; w++ {
		acc = merge(acc, partials[w])
	}
	return acc
}

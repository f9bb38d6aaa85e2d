package campaign

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/parallel"
)

// ProgressEvent describes one completed cell, for progress/ETA reporting.
type ProgressEvent struct {
	Spec string
	// Done cells out of Total.
	Done, Total int
	// Cell that just finished, its Key, and whether it was a cache hit.
	Cell   Cell
	Key    string
	Cached bool
	// Duration of this cell's execution (0 for cache hits) and the
	// estimated time to completion extrapolated from the mean
	// executed-cell duration and the remaining cell count.
	Duration time.Duration
	ETA      time.Duration
}

// Report is the outcome of one campaign run.
type Report struct {
	Spec string
	// Results holds one entry per spec cell, in spec order. Cells with
	// identical keys share a single entry.
	Results []*CellResult
	// Executed counts freshly-computed unique cells; CacheHits counts
	// unique cells served from the store.
	Executed, CacheHits int
	Elapsed             time.Duration
}

// Engine runs campaigns: it expands a spec, deduplicates cells by content
// hash, serves cached cells from the Store, and executes the rest on a
// bounded worker pool. Results are deterministic: for a fixed spec, every
// worker count produces identical per-cell results.
type Engine struct {
	// Registry resolves cell names (required).
	Registry *Registry
	// Store memoizes results; nil disables caching.
	Store *Store
	// Workers bounds concurrent cell executions (0 = GOMAXPROCS).
	Workers int
	// Progress, when non-nil, observes every completed cell. It is called
	// from worker goroutines under the engine's bookkeeping lock, so
	// callbacks need no further synchronization.
	Progress func(ProgressEvent)
}

func (e *Engine) workers() int {
	return parallel.Resolve(e.Workers)
}

// simWorkers bounds the in-simulation parallelism of each cell: the
// per-client gradient phase and the aggregation-rule kernels (via
// fl.Config.Workers). The CPUs left after the cell-level pool has claimed
// its share go to each cell, at least one: cells of a full pool run
// single-threaded, and a single-worker engine hands all CPUs to the
// simulation.
func simWorkers(cellWorkers int) int {
	per := parallel.Default() / cellWorkers
	if per < 1 {
		per = 1
	}
	return per
}

// dsKey identifies one loaded dataset instance.
type dsKey struct {
	name        string
	seed        int64
	train, test int
}

// dsCache loads each distinct dataset exactly once, even under concurrent
// first requests (per-entry sync.Once).
type dsCache struct {
	mu sync.Mutex
	m  map[dsKey]*dsEntry
}

type dsEntry struct {
	once sync.Once
	ds   *data.Dataset
	err  error
}

func (c *dsCache) get(k dsKey, load func() (*data.Dataset, error)) (*data.Dataset, error) {
	c.mu.Lock()
	ent, ok := c.m[k]
	if !ok {
		ent = &dsEntry{}
		c.m[k] = ent
	}
	c.mu.Unlock()
	ent.once.Do(func() { ent.ds, ent.err = load() })
	return ent.ds, ent.err
}

// job is one unique cell (deduplicated by key) and the spec positions it
// fills.
type job struct {
	cell    Cell
	key     string
	indices []int
	res     *CellResult
}

// Run executes the spec and returns one result per cell, in spec order.
// The first cell error (or context cancellation) stops the campaign;
// already-completed cells remain in the store, so a re-run resumes.
func (e *Engine) Run(ctx context.Context, spec Spec) (*Report, error) {
	if e.Registry == nil {
		return nil, fmt.Errorf("campaign: engine has no registry")
	}
	if err := e.Registry.Validate(spec); err != nil {
		return nil, fmt.Errorf("campaign %s: %w", spec.Name, err)
	}

	// Deduplicate cells by content hash, preserving first-seen order.
	jobs := make([]*job, 0, len(spec.Cells))
	byKey := make(map[string]*job, len(spec.Cells))
	for i, c := range spec.Cells {
		key, err := c.Key()
		if err != nil {
			return nil, fmt.Errorf("campaign %s: hashing cell %d: %w", spec.Name, i, err)
		}
		j, ok := byKey[key]
		if !ok {
			j = &job{cell: c, key: key}
			byKey[key] = j
			jobs = append(jobs, j)
		}
		j.indices = append(j.indices, i)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// cellWorkers is clamped to the pending cell count once the cache has
	// been consulted below; the complete closure only reads it for ETA
	// estimates, which never fire before the first executed cell.
	cellWorkers := e.workers()

	var (
		start = time.Now()

		mu        sync.Mutex
		firstErr  error
		done      int
		cacheHits int
		execDur   time.Duration
		executed  int
	)

	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	complete := func(j *job, cached bool, dur time.Duration) {
		mu.Lock()
		done++
		if cached {
			cacheHits++
		} else {
			executed++
			execDur += dur
		}
		ev := ProgressEvent{
			Spec: spec.Name, Done: done, Total: len(jobs),
			Cell: j.cell, Key: j.key, Cached: cached,
			Duration: dur,
		}
		if executed > 0 && done < len(jobs) {
			avg := execDur / time.Duration(executed)
			remaining := len(jobs) - done
			ev.ETA = avg * time.Duration(remaining) / time.Duration(cellWorkers)
		}
		progress := e.Progress
		if progress != nil {
			progress(ev)
		}
		mu.Unlock()
	}

	// Serve cached cells before any scheduling, so the workers only ever see
	// cells that genuinely need computing.
	pending := make([]*job, 0, len(jobs))
	for _, j := range jobs {
		if e.Store != nil {
			if res, ok := e.Store.Get(j.key); ok {
				j.res = res
				complete(j, true, 0)
				continue
			}
		}
		pending = append(pending, j)
	}

	if cellWorkers > len(pending) {
		cellWorkers = len(pending)
	}
	if cellWorkers < 1 {
		cellWorkers = 1
	}
	run := &runner{
		registry:   e.Registry,
		simWorkers: simWorkers(cellWorkers),
		datasets:   &dsCache{m: map[dsKey]*dsEntry{}},
	}

	// Every worker claims the next pending cell, in spec order, until none
	// is left: cells differ widely in cost, so claiming one at a time keeps
	// the pool busy where fixed chunks would leave workers idle. A failed
	// cell fails the whole run, and results land in pre-assigned slots, so
	// completion order never matters.
	var next atomic.Int64
	parallel.Run(cellWorkers, func(int) {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(pending) {
				return
			}
			j := pending[i]
			t0 := time.Now()
			res, err := run.executeCell(j.cell, j.key)
			if err != nil {
				fail(fmt.Errorf("campaign %s: cell %s: %w", spec.Name, j.cell.ID(), err))
				return
			}
			res.DurationMS = time.Since(t0).Milliseconds()
			if e.Store != nil {
				if err := e.Store.Put(res); err != nil {
					fail(err)
					return
				}
			}
			j.res = res
			complete(j, false, time.Since(t0))
		}
	})

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{
		Spec:      spec.Name,
		Results:   make([]*CellResult, len(spec.Cells)),
		Executed:  executed,
		CacheHits: cacheHits,
		Elapsed:   time.Since(start),
	}
	for _, j := range jobs {
		for _, i := range j.indices {
			rep.Results[i] = j.res
		}
	}
	return rep, nil
}

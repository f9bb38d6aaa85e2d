package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/parallel"
)

// Worker joins a coordinator and executes leased cells until the campaign
// completes. Cells run through the same campaign.CellRunner implementation
// the in-process engine uses, so a distributed worker produces results
// byte-identical to a local run of the same grid.
type Worker struct {
	// URL is the coordinator base URL, e.g. "http://host:9090" (required).
	URL string
	// ID names this worker in leases and heartbeats ("" = host-pid).
	ID string
	// Runner executes leased cells (required).
	Runner campaign.CellRunner
	// Registry, when non-nil, validates the fetched grid before any cell
	// runs, so a worker missing a dataset/rule/attack fails on join rather
	// than mid-campaign.
	Registry *campaign.Registry
	// CheckSpec, when non-nil, vets the joined grid after Registry
	// validation and before any cell is leased — the hook behind operator
	// policy like `campaign work -codec`, which refuses grids whose cells
	// use a codec other than the pinned one.
	CheckSpec func(campaign.Spec) error
	// Slots is the number of cells executed concurrently (0 = 1).
	Slots int
	// Batch is how many cells each slot leases per request (0 = 1). Larger
	// batches amortize round-trips at the cost of coarser stealing.
	Batch int
	// Poll is the idle wait between empty leases while peers still hold
	// cells (0 = 2s).
	Poll time.Duration
	// Client is the HTTP client (nil = http.DefaultClient).
	Client *http.Client
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// WorkerStats summarizes one Worker.Run.
type WorkerStats struct {
	// Executed counts cells this worker trained; Duplicates counts those
	// whose upload the coordinator discarded because another worker had
	// already completed them (normal after a lease expiry).
	Executed   int
	Duplicates int
	Elapsed    time.Duration
}

func (w *Worker) id() string {
	if w.ID != "" {
		return w.ID
	}
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// getJSON fetches URL+path into out.
func (w *Worker) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.URL+path, nil)
	if err != nil {
		return err
	}
	return w.do(req, out)
}

// postJSON posts in to URL+path and decodes the response into out.
func (w *Worker) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.do(req, out)
}

func (w *Worker) do(req *http.Request, out any) error {
	resp, err := w.client().Do(req)
	if err != nil {
		return fmt.Errorf("dist: %s %s: %w", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return &protocolError{method: req.Method, path: req.URL.Path, status: resp.Status, msg: string(bytes.TrimSpace(msg))}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// protocolError is an HTTP-level rejection: the coordinator was reachable
// and refused the request. Unlike transport failures it is never retried.
type protocolError struct {
	method, path, status, msg string
}

func (e *protocolError) Error() string {
	return fmt.Sprintf("dist: %s %s: %s: %s", e.method, e.path, e.status, e.msg)
}

// retry runs call with a few wait-spaced retries on transport failures —
// a coordinator mid-restart, one that shut down moments after handing out
// its last Done, or one started just after its workers. Protocol
// rejections and context cancellation return immediately.
func (w *Worker) retry(ctx context.Context, what string, wait time.Duration, call func() error) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			w.logf("dist: retrying %s after transport error: %v", what, err)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		}
		err = call()
		var pe *protocolError
		if err == nil || errors.As(err, &pe) || ctx.Err() != nil {
			return err
		}
	}
	return err
}

// postRetry is postJSON through the retry policy.
func (w *Worker) postRetry(ctx context.Context, path string, in, out any, wait time.Duration) error {
	return w.retry(ctx, path, wait, func() error { return w.postJSON(ctx, path, in, out) })
}

// Run joins the coordinator and works until the campaign is done or a cell
// fails. Cell failures are fail-fast worker-side (matching the local
// engine); the failed worker's remaining leases expire and return to the
// queue for other workers.
func (w *Worker) Run(ctx context.Context) (WorkerStats, error) {
	var stats WorkerStats
	if w.URL == "" || w.Runner == nil {
		return stats, fmt.Errorf("dist: worker requires URL and Runner")
	}
	id := w.id()
	start := time.Now()

	slots := w.Slots
	if slots < 1 {
		slots = 1
	}
	batch := w.Batch
	if batch < 1 {
		batch = 1
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 2 * time.Second
	}

	var spec SpecResponse
	if err := w.retry(ctx, PathSpec, poll, func() error {
		return w.getJSON(ctx, PathSpec, &spec)
	}); err != nil {
		return stats, err
	}
	// Hash drift guard: every cell must hash locally to the key the
	// coordinator advertises. A mismatch means coordinator and worker
	// binaries disagree on cell semantics and must not share a store.
	cells := make(map[string]campaign.Cell, len(spec.Cells))
	for _, sc := range spec.Cells {
		key, err := sc.Cell.Key()
		if err != nil {
			return stats, fmt.Errorf("dist: hashing cell %s: %w", sc.Cell.ID(), err)
		}
		if key != sc.Key {
			return stats, fmt.Errorf("dist: cell %s hashes to %s locally but %s at the coordinator — mismatched builds",
				sc.Cell.ID(), key, sc.Key)
		}
		cells[sc.Key] = sc.Cell
	}
	if w.Registry != nil || w.CheckSpec != nil {
		grid := campaign.Spec{Name: spec.Name}
		for _, sc := range spec.Cells {
			grid.Cells = append(grid.Cells, sc.Cell)
		}
		if w.Registry != nil {
			if err := w.Registry.Validate(grid); err != nil {
				return stats, fmt.Errorf("dist: campaign %s not runnable here: %w", spec.Name, err)
			}
		}
		if w.CheckSpec != nil {
			if err := w.CheckSpec(grid); err != nil {
				return stats, fmt.Errorf("dist: campaign %s refused by worker policy: %w", spec.Name, err)
			}
		}
	}
	ttl := time.Duration(spec.TTLMillis) * time.Millisecond
	w.logf("dist: %s: joined campaign %s (%d cells, ttl %v)", id, spec.Name, len(spec.Cells), ttl)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// One heartbeat loop for the whole worker renews every lease it holds,
	// several times per TTL so a single dropped request cannot expire a
	// healthy worker's cells.
	var hbWG sync.WaitGroup
	if interval := ttl / 3; interval > 0 {
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-ticker.C:
					var resp HeartbeatResponse
					// Transient failures are fine: the next beat retries
					// well before the TTL runs out.
					_ = w.postJSON(runCtx, PathHeartbeat, HeartbeatRequest{WorkerID: id}, &resp)
				}
			}
		}()
	}

	var mu sync.Mutex
	var firstErr error
	// done flips once any slot observes campaign completion; from then on
	// every slot winds down and errors are expected noise (the coordinator
	// may already have shut down), not failures.
	var done atomic.Bool
	finish := func() {
		done.Store(true)
		cancel()
	}
	fail := func(err error) {
		if done.Load() {
			return
		}
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	parallel.Run(slots, func(int) {
		for runCtx.Err() == nil {
			var lease LeaseResponse
			if err := w.postRetry(runCtx, PathLease, LeaseRequest{WorkerID: id, Max: batch}, &lease, poll); err != nil {
				fail(err)
				return
			}
			if len(lease.Keys) == 0 {
				if lease.Done {
					finish()
					return
				}
				// Everything pending is leased elsewhere; poll for
				// requeues from expired leases.
				select {
				case <-runCtx.Done():
				case <-time.After(poll):
				}
				continue
			}
			for _, key := range lease.Keys {
				if runCtx.Err() != nil {
					return
				}
				cell, ok := cells[key]
				if !ok {
					fail(fmt.Errorf("dist: coordinator leased unknown cell key %s", key))
					return
				}
				t0 := time.Now()
				res, err := w.Runner.RunCell(cell, key)
				if err != nil {
					fail(fmt.Errorf("dist: cell %s: %w", cell.ID(), err))
					return
				}
				// Counted once trained, not once acknowledged: when another
				// slot's upload completes the campaign it cancels runCtx, and
				// this slot's already-received upload may lose its reply.
				mu.Lock()
				stats.Executed++
				mu.Unlock()
				var ack ResultResponse
				if err := w.postRetry(runCtx, PathResult, res, &ack, poll); err != nil {
					fail(err)
					return
				}
				if ack.Duplicate {
					mu.Lock()
					stats.Duplicates++
					mu.Unlock()
				}
				w.logf("dist: %s: %s in %v%s", id, cell.ID(),
					time.Since(t0).Round(time.Millisecond),
					map[bool]string{true: " (duplicate)", false: ""}[ack.Duplicate])
				if ack.Done {
					// This upload finished the campaign: no cell can be
					// pending or leased anywhere, including in this batch.
					finish()
					return
				}
			}
		}
	})
	cancel()
	hbWG.Wait()

	stats.Elapsed = time.Since(start)
	if firstErr != nil {
		return stats, firstErr
	}
	return stats, ctx.Err()
}

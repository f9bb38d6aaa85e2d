package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/experiments"
)

// gridSpec describes the campaign workload: a cold phase that executes and
// stores every cell of a grid, then a warm phase that re-runs the same
// spec against the reopened store (hash plus Get only).
type gridSpec struct {
	name                      string
	datasets, rules, attacks  []string
	seeds, warmPasses, warmUp int
	params                    campaign.Params
}

func (g gridSpec) workload() workload {
	return workload{
		name: g.name, op: "cell", tailPct: 0.90,
		setup: func(e env) (instance, map[string]float64, error) { return g.setup(e) },
	}
}

// spec builds the grid; every cell seed derives from the run seed.
func (g gridSpec) spec(seed int64) campaign.Spec {
	spec := campaign.Spec{Name: g.name}
	for _, d := range g.datasets {
		for _, r := range g.rules {
			for _, a := range g.attacks {
				spec.Cells = append(spec.Cells, campaign.NewCell(d, r, a, g.params))
			}
		}
	}
	seeds := make([]int64, g.seeds)
	for i := range seeds {
		seeds[i] = seed*1000 + int64(i) + 1
	}
	return campaign.ReplicateSeeds(spec, seeds)
}

type gridInstance struct {
	g    gridSpec
	env  env
	spec campaign.Spec
	dir  string
	n    int
}

func (g gridSpec) setup(e env) (*gridInstance, map[string]float64, error) {
	dir, err := os.MkdirTemp(e.tmpDir, g.name+"-")
	if err != nil {
		return nil, nil, err
	}
	inst := &gridInstance{g: g, env: e, spec: g.spec(e.seed), dir: dir}
	// Warm-up unit: the head of the grid, cold then warm.
	head := campaign.Spec{Name: g.name, Cells: inst.spec.Cells[:min(g.warmUp, len(inst.spec.Cells))]}
	store, err := campaign.OpenStore(inst.scratch())
	if err != nil {
		return nil, nil, err
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := experiments.NewEngine(e.workers, store, nil).Run(context.Background(), head); err != nil {
			return nil, nil, fmt.Errorf("warm-up pass %d: %w", pass, err)
		}
	}
	return inst, nil, nil
}

func (i *gridInstance) close() error { return os.RemoveAll(i.dir) }

// scratch names a fresh store directory under the instance's own.
func (i *gridInstance) scratch() string {
	i.n++
	return fmt.Sprintf("%s/store-%d", i.dir, i.n)
}

func (i *gridInstance) unit(tr *tracer) (*unitResult, error) {
	ctx := context.Background()
	storeDir := i.scratch()
	defer os.RemoveAll(storeDir)
	store, err := campaign.OpenStore(storeDir)
	if err != nil {
		return nil, err
	}

	// Cold phase: a fresh store, every cell executed and Put. Cell
	// durations come from the engine's own progress events in both phases.
	type done struct {
		at  time.Time
		dur time.Duration
	}
	var events []done
	engine := experiments.NewEngine(i.env.workers, store, nil)
	engine.Progress = func(ev campaign.ProgressEvent) {
		events = append(events, done{time.Now(), ev.Duration})
	}
	a0 := totalAllocMB()
	t0 := time.Now()
	cold, err := engine.Run(ctx, i.spec)
	coldWall := time.Since(t0)
	allocMB := totalAllocMB() - a0
	if err != nil {
		return nil, fmt.Errorf("cold phase: %w", err)
	}
	unique := cold.Executed + cold.CacheHits

	u := &unitResult{
		wall: coldWall, ops: cold.Executed, attempted: unique, failed: unique - len(events), allocMB: allocMB,
		counts: map[string]float64{"cold_executed": float64(cold.Executed), "cold_cache_hits": float64(cold.CacheHits)},
	}
	var busy time.Duration
	for _, ev := range events {
		u.latMS = append(u.latMS, float64(ev.dur)/float64(time.Millisecond))
		busy += ev.dur
	}
	if cold.CacheHits != 0 {
		u.checks = append(u.checks, fmt.Sprintf("cold phase served %d cells from a fresh store", cold.CacheHits))
	}
	coldJSON, err := json.Marshal(cold.Results)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	for _, r := range cold.Results {
		sum, err := r.Hash()
		if err != nil {
			return nil, err
		}
		h.Write([]byte(sum))
	}
	u.digest = hex.EncodeToString(h.Sum(nil))

	// Warm phase: the same spec on the reopened store. Only the reopening
	// and the engine run are on the clock, not the byte comparison.
	var openMS []float64
	var warmHits, warmExecuted int
	var warmWall time.Duration
	for pass := 0; pass < i.g.warmPasses; pass++ {
		o0 := time.Now()
		reopened, err := campaign.OpenStore(storeDir)
		if err != nil {
			return nil, err
		}
		o1 := time.Now()
		warm, err := experiments.NewEngine(i.env.workers, reopened, nil).Run(ctx, i.spec)
		if err != nil {
			return nil, fmt.Errorf("warm pass %d: %w", pass, err)
		}
		w1 := time.Now()
		openMS = append(openMS, float64(o1.Sub(o0))/float64(time.Millisecond))
		warmWall += w1.Sub(o0)
		if tr != nil {
			tr.add("campaign.warm", pass+1, 0, o0, w1)
		}
		warmHits += warm.CacheHits
		warmExecuted += warm.Executed
		warmJSON, err := json.Marshal(warm.Results)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(warmJSON, coldJSON) {
			u.checks = append(u.checks, "warm results are not byte-equal to the cold results")
		}
	}
	u.counts["warm_executed"] = float64(warmExecuted)
	u.counts["warm_cache_hits"] = float64(warmHits)
	if warmExecuted != 0 {
		u.checks = append(u.checks, fmt.Sprintf("warm phase executed %d cells", warmExecuted))
	}
	if tr == nil {
		return u, nil
	}

	// Spans: the cold run, and under it one span per cell rebuilt from its
	// progress event (cells overlap across the pool's workers, so the run's
	// self time is the time no cell was executing).
	run := tr.add("campaign.cold", 0, 0, t0, t0.Add(coldWall))
	for n, ev := range events {
		tr.add("campaign.cell", n+1, run, ev.at.Add(-ev.dur), ev.at)
	}

	putMS, getMS, err := i.replayStore(tr, cold.Results)
	if err != nil {
		return nil, err
	}
	k0 := time.Now()
	for _, c := range i.spec.Cells {
		if _, err := c.Key(); err != nil {
			return nil, err
		}
	}
	k1 := time.Now()
	tr.add("replay.campaign.key", 0, 0, k0, k1)

	cells := float64(len(i.spec.Cells))
	u.layers = map[string]float64{
		"campaign.cell_ms_p50":           percentile(u.latMS, 0.50),
		"campaign.cell_ms_max":           percentile(u.latMS, 1),
		"campaign.pool_idle_share":       1 - busy.Seconds()/(float64(i.env.workers)*coldWall.Seconds()),
		"campaign.store_put_ms_per_cell": putMS,
		"campaign.warm_cells_per_s":      float64(warmHits) / warmWall.Seconds(),
		"campaign.key_us_per_cell":       float64(k1.Sub(k0)) / float64(time.Microsecond) / cells,
		"campaign.store_get_ms_per_cell": getMS,
		"campaign.store_open_ms":         median(openMS),
		"campaign.cache_hit_share":       float64(warmHits) / float64(max(warmHits+warmExecuted, 1)),
	}
	u.spans = tr.snapshot()
	return u, nil
}

// replayStore times campaign.Store.Put and Get directly: every result of
// the cold phase is Put into a fresh store, flushed, and read back.
func (i *gridInstance) replayStore(tr *tracer, results []*campaign.CellResult) (putMS, getMS float64, err error) {
	dir := i.scratch()
	defer os.RemoveAll(dir)
	store, err := campaign.OpenStore(dir)
	if err != nil {
		return 0, 0, err
	}
	p0 := time.Now()
	for _, r := range results {
		if err := store.Put(r); err != nil {
			return 0, 0, err
		}
	}
	if err := store.Flush(); err != nil {
		return 0, 0, err
	}
	p1 := time.Now()
	for _, r := range results {
		if _, ok := store.Get(r.Key); !ok {
			return 0, 0, fmt.Errorf("store lost cell %s", r.Cell.ID())
		}
	}
	g1 := time.Now()
	tr.add("replay.campaign.store_put", 0, 0, p0, p1)
	tr.add("replay.campaign.store_get", 0, 0, p1, g1)
	n := float64(max(len(results), 1)) * float64(time.Millisecond)
	return float64(p1.Sub(p0)) / n, float64(g1.Sub(p1)) / n, nil
}

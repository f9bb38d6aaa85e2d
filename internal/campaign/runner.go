package campaign

import (
	"fmt"
	"sync"
	"time"

	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/fl"
)

// CellRunner executes one cell to its stored-form result. It is the seam
// between schedulers and execution: the in-process engine and the
// distributed worker (internal/campaign/dist) both run cells through the
// same implementation, so a single result format and a single content-hash
// scheme serve local and distributed campaigns alike.
type CellRunner interface {
	// RunCell trains the cell and returns its result stamped with key (the
	// cell's content hash, under which the result is stored).
	RunCell(c Cell, key string) (*CellResult, error)
}

// Runner is the standard CellRunner: it resolves the cell's names through a
// Registry, loads each distinct dataset once through a per-Runner cache,
// and stamps the result's wall-clock duration.
type Runner struct {
	// Registry resolves cell names (required).
	Registry *Registry
	// SimWorkers bounds each cell's in-simulation parallelism: the
	// per-client gradient phase and the aggregation-rule kernels (via
	// fl.Config.Workers). 0 = automatic (all CPUs); results are
	// byte-identical for any value.
	SimWorkers int

	once     sync.Once
	datasets *dsCache
}

// RunCell implements CellRunner.
func (r *Runner) RunCell(c Cell, key string) (*CellResult, error) {
	if r.Registry == nil {
		return nil, fmt.Errorf("campaign: runner has no registry")
	}
	r.once.Do(func() { r.datasets = &dsCache{m: map[dsKey]*dsEntry{}} })
	t0 := time.Now()
	res, err := r.executeCell(c, key)
	if err != nil {
		return nil, err
	}
	res.DurationMS = time.Since(t0).Milliseconds()
	return res, nil
}

// executeCell resolves the cell through the registry and trains it.
func (r *Runner) executeCell(c Cell, key string) (*CellResult, error) {
	db, err := r.Registry.dataset(c.Dataset)
	if err != nil {
		return nil, err
	}
	p := c.Params
	dataset, err := r.datasets.get(
		dsKey{name: c.Dataset, seed: p.Seed + 7, train: p.TrainSize, test: p.TestSize},
		func() (*data.Dataset, error) { return db.Load(p.Seed+7, p.TrainSize, p.TestSize) },
	)
	if err != nil {
		return nil, fmt.Errorf("loading dataset %s: %w", c.Dataset, err)
	}

	numByz := c.EffectiveByz()
	rule, err := r.Registry.buildDefense(c, numByz, p.Seed+11)
	if err != nil {
		return nil, fmt.Errorf("building rule %s: %w", c.Rule, err)
	}
	buildAttack, err := r.Registry.attack(c.Attack)
	if err != nil {
		return nil, err
	}
	att, err := buildAttack(c, p.Seed+13)
	if err != nil {
		return nil, fmt.Errorf("building attack %s: %w", c.Attack, err)
	}

	var probe *ProbeInstance
	if c.Probe != "" {
		buildProbe, err := r.Registry.probe(c.Probe)
		if err != nil {
			return nil, err
		}
		probe, err = buildProbe(c)
		if err != nil {
			return nil, fmt.Errorf("building probe %s: %w", c.Probe, err)
		}
	}

	var nonIID *fl.NonIID
	if c.NonIIDS > 0 {
		nonIID = &fl.NonIID{S: c.NonIIDS, ShardsPerClient: c.NonIIDShards}
	}
	participation, err := participationFor(c)
	if err != nil {
		return nil, err
	}
	wireCodec, err := r.Registry.codecFor(c)
	if err != nil {
		return nil, fmt.Errorf("building codec %s: %w", c.Codec, err)
	}
	policy, err := nonFiniteFor(c)
	if err != nil {
		return nil, err
	}

	x := &CellExec{
		Dataset:       dataset,
		NewModel:      db.NewModel,
		LR:            db.LR,
		Rule:          rule,
		Attack:        att,
		NumByz:        numByz,
		NonIID:        nonIID,
		Participation: participation,
		Codec:         wireCodec,
		NonFinite:     policy,
		Params:        p,
		SimWorkers:    r.SimWorkers,
	}
	if probe != nil {
		x.Hook = probe.Hook
	}
	res, err := x.Run()
	if err != nil {
		return nil, err
	}
	out := newCellResult(c, key, res)
	if probe != nil && probe.Finish != nil {
		raw, err := probe.Finish()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", c.Probe, err)
		}
		out.Probe = raw
	}
	return out, nil
}

package campaign

import (
	"fmt"

	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/fl"
)

// runner executes one engine run's cells: it resolves each cell's names
// through the registry and loads each distinct dataset once, however many
// cells and workers share it.
type runner struct {
	registry *Registry
	// simWorkers bounds each cell's in-simulation parallelism (see
	// simWorkers in engine.go); results are byte-identical for any value.
	simWorkers int
	datasets   *dsCache
}

// executeCell trains the cell and returns its result stamped with key (the
// cell's content hash, under which the result is stored).
func (r *runner) executeCell(c Cell, key string) (*CellResult, error) {
	db, err := r.registry.dataset(c.Dataset)
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
	rule, err := r.registry.defenses.Build(c.Rule, defense.Params{N: p.Clients, F: numByz, Seed: p.Seed + 11})
	if err != nil {
		return nil, fmt.Errorf("building rule %s: %w", c.Rule, err)
	}
	buildAttack, err := r.registry.attack(c.Attack)
	if err != nil {
		return nil, err
	}
	att, err := buildAttack(c, p.Seed+13)
	if err != nil {
		return nil, fmt.Errorf("building attack %s: %w", c.Attack, err)
	}

	var (
		probe *ProbeInstance
		hook  func(*fl.RoundState)
	)
	if c.Probe != "" {
		buildProbe, err := r.registry.probe(c.Probe)
		if err != nil {
			return nil, err
		}
		probe, err = buildProbe(c)
		if err != nil {
			return nil, fmt.Errorf("building probe %s: %w", c.Probe, err)
		}
		hook = probe.Hook
	}

	var nonIID *fl.NonIID
	if c.NonIIDS > 0 {
		nonIID = &fl.NonIID{S: c.NonIIDS, ShardsPerClient: c.NonIIDShards}
	}
	wireCodec, err := r.registry.codecFor(c)
	if err != nil {
		return nil, fmt.Errorf("building codec %s: %w", c.Codec, err)
	}

	// The one place an experiment cell's fl.Config is assembled.
	sim, err := fl.New(fl.Config{
		Dataset:     dataset,
		NewModel:    db.NewModel,
		Rule:        rule,
		Attack:      att,
		Clients:     p.Clients,
		NumByz:      numByz,
		Rounds:      p.Rounds,
		BatchSize:   p.BatchSize,
		LR:          db.LR,
		Momentum:    0.9,
		WeightDecay: 5e-4,
		EvalEvery:   p.EvalEvery,
		EvalSamples: p.EvalSamples,
		NonIID:      nonIID,
		Pipeline:    fl.Pipeline{Codec: wireCodec},
		Seed:        p.Seed,
		RoundHook:   hook,
		Workers:     r.simWorkers,
	})
	if err != nil {
		return nil, err
	}
	res, err := sim.Run()
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

package campaign

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/fl"
	"github.com/signguard/signguard/internal/nn"
)

// DatasetBuilder binds a dataset key to its loader and model family.
type DatasetBuilder struct {
	// LR is the learning rate used with this dataset's model.
	LR float64
	// Load builds the dataset at the given sizes.
	Load func(seed int64, train, test int) (*data.Dataset, error)
	// NewModel builds the global model.
	NewModel func(rng *rand.Rand) (nn.Classifier, error)
}

// AttackBuilder constructs a fresh attack for a cell.
type AttackBuilder func(c Cell, seed int64) (attack.Attack, error)

// ProbeInstance is a live per-cell observer: Hook sees every round, Finish
// serializes whatever the probe collected into the stored result.
type ProbeInstance struct {
	Hook   func(*fl.RoundState)
	Finish func() (json.RawMessage, error)
}

// ProbeBuilder constructs a probe instance for a cell.
type ProbeBuilder func(c Cell) (*ProbeInstance, error)

// Registry resolves the names inside cells to concrete builders. Defenses
// resolve through a shared defense.Registry — the same catalog the CLIs
// list — so SignGuard and the baseline aggregation rules are built through
// one door. The zero value is unusable; use NewRegistry.
type Registry struct {
	datasets map[string]DatasetBuilder
	defenses *defense.Registry
	codecs   *codec.Registry
	attacks  map[string]AttackBuilder
	probes   map[string]ProbeBuilder
}

// NewRegistry returns a registry with no datasets, attacks or probes, the
// builtin defense catalog (RegisterDefenses replaces it) and the builtin
// codec catalog.
func NewRegistry() *Registry {
	return &Registry{
		datasets: map[string]DatasetBuilder{},
		defenses: defense.Builtin(),
		codecs:   codec.Builtin(),
		attacks:  map[string]AttackBuilder{},
		probes:   map[string]ProbeBuilder{},
	}
}

// RegisterDataset binds key to a dataset builder.
func (r *Registry) RegisterDataset(key string, b DatasetBuilder) { r.datasets[key] = b }

// RegisterDefenses installs the defense catalog cells resolve their Rule
// names against.
func (r *Registry) RegisterDefenses(d *defense.Registry) { r.defenses = d }

// RegisterAttack binds name to an attack builder.
func (r *Registry) RegisterAttack(name string, b AttackBuilder) { r.attacks[name] = b }

// RegisterProbe binds name to a probe builder.
func (r *Registry) RegisterProbe(name string, b ProbeBuilder) { r.probes[name] = b }

func (r *Registry) dataset(key string) (DatasetBuilder, error) {
	b, ok := r.datasets[key]
	if !ok {
		return DatasetBuilder{}, fmt.Errorf("campaign: unknown dataset %q", key)
	}
	return b, nil
}

func (r *Registry) attack(name string) (AttackBuilder, error) {
	b, ok := r.attacks[name]
	if !ok {
		return nil, fmt.Errorf("campaign: unknown attack %q", name)
	}
	return b, nil
}

func (r *Registry) probe(name string) (ProbeBuilder, error) {
	b, ok := r.probes[name]
	if !ok {
		return nil, fmt.Errorf("campaign: unknown probe %q", name)
	}
	return b, nil
}

// codecFor builds the cell's codec stage (nil = engine default, i.e. the
// lossless identity codec).
func (r *Registry) codecFor(c Cell) (codec.Codec, error) {
	if c.Codec == "" {
		return nil, nil
	}
	return r.codecs.Build(c.Codec, codec.Params{})
}

// Validate checks that every name referenced by the spec's cells resolves,
// so a campaign fails before any cell has trained rather than mid-sweep.
func (r *Registry) Validate(spec Spec) error {
	for i, c := range spec.Cells {
		if _, err := r.dataset(c.Dataset); err != nil {
			return fmt.Errorf("cell %d (%s): %w", i, c.ID(), err)
		}
		if _, err := r.defenses.Lookup(c.Rule); err != nil {
			return fmt.Errorf("cell %d (%s): %w", i, c.ID(), err)
		}
		if _, err := r.attack(c.Attack); err != nil {
			return fmt.Errorf("cell %d (%s): %w", i, c.ID(), err)
		}
		if c.Codec != "" {
			if _, err := r.codecs.Lookup(c.Codec); err != nil {
				return fmt.Errorf("cell %d (%s): %w", i, c.ID(), err)
			}
		}
		if c.Probe != "" {
			if _, err := r.probe(c.Probe); err != nil {
				return fmt.Errorf("cell %d (%s): %w", i, c.ID(), err)
			}
		}
		if c.Params.Clients <= 0 || c.Params.Rounds <= 0 {
			return fmt.Errorf("cell %d (%s): invalid params %+v", i, c.ID(), c.Params)
		}
	}
	return nil
}

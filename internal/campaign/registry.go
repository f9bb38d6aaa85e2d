package campaign

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/catalog"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/fl"
	"github.com/signguard/signguard/internal/nn"
)

// Dataset binds a dataset key to its table heading, loader and model
// family: one of the paper's dataset/model pairs.
type Dataset struct {
	// Key is the cell's Dataset name: mnist, fashion, cifar, agnews.
	Key string
	// Title is the table heading, e.g. "MNIST-like (CNN)".
	Title string
	// LR is the learning rate used with this dataset's model.
	LR float64
	// Load builds the dataset at the given sizes.
	Load func(seed int64, train, test int) (*data.Dataset, error)
	// NewModel builds the global model.
	NewModel func(rng *rand.Rand) (nn.Classifier, error)
}

// Probe declares a per-cell observer: New builds a fresh instance for the
// cell that names it.
type Probe struct {
	Name string
	New  func(c Cell) (*ProbeInstance, error)
}

// ProbeInstance is a live per-cell observer: Hook sees every round, Finish
// serializes whatever the probe collected into the stored result.
type ProbeInstance struct {
	Hook   func(*fl.RoundState)
	Finish func() (json.RawMessage, error)
}

// Registry holds the tables a cell's names resolve through; every field is
// required. Codec names resolve through codec.Builtin().
type Registry struct {
	Datasets *catalog.Catalog[Dataset]
	Defenses *defense.Registry
	Attacks  *catalog.Catalog[attack.Spec]
	Probes   *catalog.Catalog[Probe]
}

// Validate checks that every name referenced by the spec's cells resolves,
// so a campaign fails before any cell has trained rather than mid-sweep.
func (r *Registry) Validate(spec Spec) error {
	codecs := codec.Builtin()
	for i, c := range spec.Cells {
		if err := r.check(c, codecs); err != nil {
			return fmt.Errorf("cell %d (%s): %w", i, c.ID(), err)
		}
	}
	return nil
}

func (r *Registry) check(c Cell, codecs *codec.Registry) error {
	if !r.Datasets.Has(c.Dataset) {
		return fmt.Errorf("campaign: unknown dataset %q", c.Dataset)
	}
	if _, err := r.Defenses.Lookup(c.Rule); err != nil {
		return err
	}
	if !r.Attacks.Has(c.Attack) {
		return fmt.Errorf("campaign: unknown attack %q", c.Attack)
	}
	if c.Codec != "" {
		if _, err := codecs.Lookup(c.Codec); err != nil {
			return err
		}
	}
	if c.Probe != "" && !r.Probes.Has(c.Probe) {
		return fmt.Errorf("campaign: unknown probe %q", c.Probe)
	}
	if c.Params.Clients <= 0 || c.Params.Rounds <= 0 {
		return fmt.Errorf("invalid params %+v", c.Params)
	}
	return nil
}

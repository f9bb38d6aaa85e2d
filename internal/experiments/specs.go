// Package experiments defines the reproduction harness: one experiment per
// table and figure in the paper's evaluation section, plus the post-paper
// scenario axes, runnable at two scales (Bench for `go test -bench`,
// Standard for the paper's client count). Each
// experiment is declared once, in the Experiments catalog, as a layout: one
// function that lays out the rows/series the paper reports at given Params
// and names each cell where its value goes. Walked with no results it is
// the grid (a campaign.Spec); walked over results looked up by cell key it
// renders the tables. A campaign.Engine runs the grid concurrently, with
// content-addressed result caching.
package experiments

import (
	"fmt"
	"math/rand"

	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/catalog"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/nn"
)

// Scale selects the cost/fidelity tradeoff of a sweep.
type Scale int

const (
	// ScaleBench is sized for `go test -bench=.`: 20 clients, short runs.
	ScaleBench Scale = iota + 1
	// ScaleStandard is a mid-size sweep: paper client count, fewer rounds.
	ScaleStandard
)

func (s Scale) String() string {
	switch s {
	case ScaleBench:
		return "bench"
	case ScaleStandard:
		return "standard"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale converts a CLI flag value into a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "bench":
		return ScaleBench, nil
	case "standard":
		return ScaleStandard, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (want bench|standard)", s)
	}
}

// Params are the scale-dependent simulation parameters. The type is the
// campaign engine's cell-parameter block: a cell embeds it verbatim, so an
// experiment's Params are part of each cell's content hash.
type Params = campaign.Params

// DefaultParams returns the simulation parameters for a scale, matching
// the paper's setup (n=50, 20% Byzantine) at Standard scale. The
// training regime is a "slow climb": small batches and a conservative
// learning rate keep the model on its transient for most of the run, which
// is where the paper's attacks do their damage.
func DefaultParams(scale Scale) Params {
	switch scale {
	case ScaleStandard:
		return Params{
			Clients: 50, ByzFraction: 0.2, Rounds: 200, BatchSize: 8,
			EvalEvery: 20, EvalSamples: 400, TrainSize: 4000, TestSize: 1000, Seed: 1,
		}
	default: // ScaleBench
		return Params{
			Clients: 20, ByzFraction: 0.2, Rounds: 100, BatchSize: 8,
			EvalEvery: 10, EvalSamples: 250, TrainSize: 1200, TestSize: 500, Seed: 1,
		}
	}
}

// DatasetSpec is one of the paper's dataset/model pairs: a dataset analog,
// its model architecture and learning rate.
type DatasetSpec = campaign.Dataset

// Datasets returns the dataset catalog: the four dataset/model pairs of the
// paper, in its presentation order. Each call returns a fresh copy.
func Datasets() *catalog.Catalog[DatasetSpec] {
	return catalog.Must("dataset", func(d DatasetSpec) string { return d.Key }, []DatasetSpec{
		{
			Key: "mnist", Title: "MNIST-like (CNN)", LR: 0.03,
			Load: data.MNISTLike,
			NewModel: func(rng *rand.Rand) (nn.Classifier, error) {
				return nn.NewImageCNN(rng, 1, 8, 8, 6, 32, 10)
			},
		},
		{
			Key: "fashion", Title: "Fashion-like (CNN)", LR: 0.03,
			Load: data.FashionLike,
			NewModel: func(rng *rand.Rand) (nn.Classifier, error) {
				return nn.NewImageCNN(rng, 1, 8, 8, 6, 32, 10)
			},
		},
		{
			Key: "cifar", Title: "CIFAR-like (DeepCNN)", LR: 0.03,
			Load: data.CIFARLike,
			NewModel: func(rng *rand.Rand) (nn.Classifier, error) {
				return nn.NewDeepImageCNN(rng, 3, 8, 8, 8, 16, 32, 10)
			},
		},
		{
			Key: "agnews", Title: "AGNews-like (TextRNN)", LR: 0.15,
			Load: data.AGNewsLike,
			NewModel: func(rng *rand.Rand) (nn.Classifier, error) {
				return nn.NewTextRNN(rng, 128, 16, 24, 4), nil
			},
		},
	}...)
}

// datasetTitle is the table heading of the dataset key names; an unknown
// key reads as itself (the registry refuses its cells before any runs).
func datasetTitle(key string) string {
	if ds, err := DatasetByKey(key); err == nil {
		return ds.Title
	}
	return key
}

// DatasetByKey looks up a dataset spec.
func DatasetByKey(key string) (DatasetSpec, error) {
	ds, err := Datasets().Lookup(key)
	if err != nil {
		return DatasetSpec{}, fmt.Errorf("experiments: unknown dataset %q", key)
	}
	return ds, nil
}

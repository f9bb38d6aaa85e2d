// Package experiments defines the reproduction harness: one experiment per
// table and figure in the paper's evaluation section, plus the post-paper
// scenario axes, runnable at three scales (Bench for `go test -bench`,
// Standard for quick full sweeps, Full for the paper-scale runs). Each
// experiment is declared once, in the Experiments catalog, as its grid (a
// campaign.Spec at given Params) and a renderer that turns the grid's cell
// results into the rows/series the paper reports; a campaign.Engine runs
// the grid concurrently, with content-addressed result caching.
package experiments

import (
	"fmt"
	"math/rand"

	"github.com/signguard/signguard/internal/campaign"
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
	// ScaleFull approaches the paper's training budget.
	ScaleFull
)

func (s Scale) String() string {
	switch s {
	case ScaleBench:
		return "bench"
	case ScaleStandard:
		return "standard"
	case ScaleFull:
		return "full"
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
	case "full":
		return ScaleFull, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (want bench|standard|full)", s)
	}
}

// Params are the scale-dependent simulation parameters. The type is the
// campaign engine's cell-parameter block: a cell embeds it verbatim, so an
// experiment's Params are part of each cell's content hash.
type Params = campaign.Params

// DefaultParams returns the simulation parameters for a scale, matching
// the paper's setup (n=50, 20% Byzantine) at Standard/Full scale. The
// training regime is a "slow climb": small batches and a conservative
// learning rate keep the model on its transient for most of the run, which
// is where the paper's attacks do their damage.
func DefaultParams(scale Scale) Params {
	switch scale {
	case ScaleFull:
		return Params{
			Clients: 50, ByzFraction: 0.2, Rounds: 400, BatchSize: 8,
			EvalEvery: 25, EvalSamples: 500, TrainSize: 4000, TestSize: 1000, Seed: 1,
		}
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

// DatasetSpec binds a dataset analog to its model architecture and
// learning rate, mirroring the paper's dataset/model pairs.
type DatasetSpec struct {
	// Key is the CLI/bench identifier: mnist, fashion, cifar, agnews.
	Key string
	// Title is the table heading, e.g. "MNIST-like (CNN)".
	Title string
	// LR is the learning rate used for this model family.
	LR float64
	// Load builds the dataset at the given sizes.
	Load func(seed int64, train, test int) (*data.Dataset, error)
	// NewModel builds the global model.
	NewModel func(rng *rand.Rand) (nn.Classifier, error)
}

// Datasets returns the four dataset/model pairs of the paper, in its
// presentation order.
func Datasets() []DatasetSpec {
	return []DatasetSpec{
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
	}
}

// DatasetByKey looks up a dataset spec.
func DatasetByKey(key string) (DatasetSpec, error) {
	for _, d := range Datasets() {
		if d.Key == key {
			return d, nil
		}
	}
	return DatasetSpec{}, fmt.Errorf("experiments: unknown dataset %q", key)
}

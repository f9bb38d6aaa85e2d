package experiments

import (
	"fmt"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/fl"
)

// CellOptions customizes a single attack × defense run beyond the scale
// defaults.
type CellOptions struct {
	// NonIID, when non-nil, uses the paper's non-IID partition.
	NonIID *fl.NonIID
	// OverrideAttack substitutes a pre-built attack (used for ad-hoc
	// attacks that are not in the campaign registry).
	OverrideAttack attack.Attack
	// OverrideNumByz, when >= 0, replaces the Byzantine count derived from
	// Params.ByzFraction.
	OverrideNumByz int
	// RoundHook observes every round.
	RoundHook func(*fl.RoundState)
}

// DefaultCellOptions returns the zero customization (OverrideNumByz
// disabled).
func DefaultCellOptions() CellOptions { return CellOptions{OverrideNumByz: -1} }

// RunCell executes one (dataset, rule, attack) experiment cell directly,
// bypassing the campaign engine and its cache. It is the programmatic
// escape hatch for hooks and ad-hoc attacks; the tables and figures
// themselves declare campaign specs instead. The cell is assembled through
// the same campaign.CellExec path the engine uses, so both agree on every
// simulation parameter.
func RunCell(dataset *data.Dataset, ds DatasetSpec, rule RuleSpec, att attack.Spec, p Params, opt CellOptions) (*fl.RunResult, error) {
	numByz := p.NumByz()
	if opt.OverrideNumByz >= 0 {
		numByz = opt.OverrideNumByz
	}
	r, err := rule.New(p.Clients, numByz, p.Seed+11)
	if err != nil {
		return nil, fmt.Errorf("experiments: building rule %s: %w", rule.Name, err)
	}
	a := opt.OverrideAttack
	if a == nil {
		if a, err = att.New(0, p.Seed+13); err != nil {
			return nil, fmt.Errorf("experiments: building attack %s: %w", att.Name, err)
		}
	}
	x := &campaign.CellExec{
		Dataset:  dataset,
		NewModel: ds.NewModel,
		LR:       ds.LR,
		Rule:     r,
		Attack:   a,
		NumByz:   numByz,
		NonIID:   opt.NonIID,
		Hook:     opt.RoundHook,
		Params:   p,
	}
	res, err := x.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s/%s: %w", ds.Key, rule.Name, att.Name, err)
	}
	return res, nil
}

// LoadDataset builds the dataset for a spec at the given params, using the
// same seed derivation as the campaign engine's dataset cache.
func LoadDataset(ds DatasetSpec, p Params) (*data.Dataset, error) {
	dataset, err := ds.Load(p.Seed+7, p.TrainSize, p.TestSize)
	if err != nil {
		return nil, fmt.Errorf("experiments: loading %s: %w", ds.Key, err)
	}
	return dataset, nil
}

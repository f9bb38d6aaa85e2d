package campaign

import (
	"encoding/json"
	"math/rand"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/fl"
	"github.com/signguard/signguard/internal/nn"
	"github.com/signguard/signguard/internal/sanitize"
)

// CellExec is the fully-resolved form of one cell: dataset loaded, rule and
// attack built, hook attached. It is the single place the fl.Config for an
// experiment cell is assembled.
type CellExec struct {
	Dataset  *data.Dataset
	NewModel func(rng *rand.Rand) (nn.Classifier, error)
	LR       float64
	Rule     aggregate.Rule
	Attack   attack.Attack
	NumByz   int
	NonIID   *fl.NonIID
	// Participation overrides the round pipeline's client-selection stage
	// (nil = full participation).
	Participation fl.Participation
	// Codec overrides the round pipeline's gradient-compression stage
	// (nil = the lossless identity wire format).
	Codec codec.Codec
	// NonFinite selects the server's non-finite ingest screen (the zero
	// policy keeps the legacy diverge-on-non-finite contract).
	NonFinite sanitize.Policy
	Hook      func(*fl.RoundState)
	Params    Params
	// SimWorkers bounds the in-simulation parallelism (0 = automatic,
	// 1 = sequential): the per-client gradient phase and the aggregation
	// rule's kernels (threaded through fl.Config.Workers into
	// aggregate.SetWorkers). Results are byte-identical for any value.
	SimWorkers int
}

// Run executes the cell's training run.
func (x *CellExec) Run() (*fl.RunResult, error) {
	sim, err := fl.New(fl.Config{
		Dataset:     x.Dataset,
		NewModel:    x.NewModel,
		Rule:        x.Rule,
		Attack:      x.Attack,
		Clients:     x.Params.Clients,
		NumByz:      x.NumByz,
		Rounds:      x.Params.Rounds,
		BatchSize:   x.Params.BatchSize,
		LR:          x.LR,
		Momentum:    0.9,
		WeightDecay: 5e-4,
		EvalEvery:   x.Params.EvalEvery,
		EvalSamples: x.Params.EvalSamples,
		NonIID:      x.NonIID,
		NonFinite:   x.NonFinite,
		Pipeline:    fl.Pipeline{Participation: x.Participation, Codec: x.Codec},
		Seed:        x.Params.Seed,
		RoundHook:   x.Hook,
		Workers:     x.SimWorkers,
	})
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// CellResult is the stored outcome of one cell: the summary quantities the
// paper's tables and figures report, plus the full evaluation trace and any
// probe output. It is pure data, safe to serialize and hash.
type CellResult struct {
	// Key is the cell's content hash (its identity in the store).
	Key  string
	Cell Cell

	RuleName   string
	AttackName string

	BestAccuracy  float64
	FinalAccuracy float64
	Diverged      bool

	// Selection accounting (the paper's Table II quantities); valid only
	// when HasSelection is true.
	HasSelection bool
	SelHonest    float64 `json:",omitempty"`
	SelMalicious float64 `json:",omitempty"`

	// EvalRounds/EvalAccuracies are the evaluated (round, accuracy) pairs
	// — the curves of Fig. 5.
	EvalRounds     []int     `json:",omitempty"`
	EvalAccuracies []float64 `json:",omitempty"`
	// TrainLoss is the per-round mean honest training loss.
	TrainLoss []float64 `json:",omitempty"`

	// WireBytes is the bytes-shipped total across all rounds: the sum of
	// every submitted gradient's encoded wire size under the cell's codec.
	WireBytes int64 `json:",omitempty"`

	// NonFiniteScreened is the run total of submissions the non-finite
	// ingest screen dropped (cells with a NonFinitePolicy axis only).
	NonFiniteScreened int `json:",omitempty"`

	// Probe holds the serialized output of the cell's probe, if any.
	Probe json.RawMessage `json:",omitempty"`

	// DurationMS is the wall-clock execution time. Runtime provenance:
	// excluded from Hash.
	DurationMS int64 `json:",omitempty"`
	// Cached reports that this result came from the store, not a fresh
	// execution. Never serialized.
	Cached bool `json:"-"`
}

// newCellResult converts an fl.RunResult into the stored form.
func newCellResult(c Cell, key string, res *fl.RunResult) *CellResult {
	out := &CellResult{
		Key:               key,
		Cell:              c,
		RuleName:          res.RuleName,
		AttackName:        res.AttackName,
		BestAccuracy:      res.BestAccuracy,
		FinalAccuracy:     res.FinalAccuracy,
		Diverged:          res.Diverged,
		WireBytes:         res.WireBytes,
		NonFiniteScreened: res.NonFiniteScreened,
	}
	if h, m, ok := res.SelectionRates(); ok {
		out.HasSelection = true
		out.SelHonest = h
		out.SelMalicious = m
	}
	out.EvalRounds, out.EvalAccuracies = res.AccuracyTrace()
	for _, rm := range res.History {
		out.TrainLoss = append(out.TrainLoss, rm.TrainLoss)
	}
	return out
}

package campaign

import (
	"encoding/json"

	"github.com/signguard/signguard/internal/fl"
)

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
	// ingest screen refused.
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

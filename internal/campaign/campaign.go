// Package campaign is the experiment-campaign engine of the reproduction:
// a declarative scenario-grid model and a deterministic parallel executor
// for large dataset × defense × attack × Byzantine-fraction sweeps.
//
// A Campaign is a named list of Cells. Each Cell is a pure-data description
// of one training run — dataset key, rule name, attack name, Byzantine
// count, non-IID skew, optional probe, and the full simulation parameters.
// Because a Cell is plain data, it has a canonical content hash (Key), and
// the engine uses that hash to memoize results in an on-disk Store:
// interrupted campaigns resume with cache hits instead of recomputation,
// and re-running a completed campaign executes zero cells.
//
// The names inside a Cell are resolved through a Registry: one catalog
// each of datasets, defenses, attacks and probes, plus codec.Builtin() for
// the codec axis. The package declares no dataset or probe of its own;
// internal/experiments fills the Registry with the paper's datasets, its
// defense catalog, attack.Builtin() and the Fig. 2 probe, and declares
// every table and figure as a campaign.
package campaign

import (
	"fmt"
	"strings"
)

// Params are the simulation parameters of one cell, mirroring the paper's
// experimental setup knobs. They are part of the cell's identity: any
// change produces a different content hash.
type Params struct {
	Clients     int
	ByzFraction float64
	Rounds      int
	BatchSize   int
	EvalEvery   int
	EvalSamples int
	TrainSize   int
	TestSize    int
	Seed        int64
}

// NumByz returns ⌊ByzFraction·Clients⌋.
func (p Params) NumByz() int { return int(p.ByzFraction * float64(p.Clients)) }

// CodecIdentity is the codec name equivalent to no codec at all: the
// identity round trip is byte-identical to an uncompressed run, so "" and
// "identity" normalize to one cell identity.
const CodecIdentity = "identity"

// Cell is the declarative description of one experiment run. Every field
// is plain data so the cell can be hashed, stored and compared; behaviour
// is attached by name through a Registry. All extension fields are
// omitempty, so cells that do not use an axis keep their historical
// content hash (and therefore their cached results).
type Cell struct {
	// Dataset, Rule and Attack are registry keys.
	Dataset string
	Rule    string
	Attack  string
	// AttackParam parameterizes attacks that need a scalar, e.g. the
	// Reverse attack's scale or the TimeVarying attack's switch interval.
	AttackParam float64 `json:",omitempty"`
	// NumByz overrides the Byzantine count; -1 derives it from
	// Params.ByzFraction (the common case).
	NumByz int
	// NonIIDS, when > 0, trains on the paper's non-IID partition with
	// IID fraction s = NonIIDS and NonIIDShards shards per client.
	NonIIDS      float64 `json:",omitempty"`
	NonIIDShards int     `json:",omitempty"`
	// Codec names the gradient-compression codec every submitted gradient
	// passes through between the adversary and the defense ("" or
	// "identity" = the lossless wire format; both spellings share one cell
	// identity). Names resolve through the codec registry.
	Codec string `json:",omitempty"`
	// Probe names an optional registered per-round observer whose output
	// is stored with the result (e.g. the Fig. 2 sign-statistics probe).
	Probe      string  `json:",omitempty"`
	ProbeParam float64 `json:",omitempty"`
	// Params are the simulation parameters.
	Params Params
}

// NewCell returns a cell with the default Byzantine derivation
// (NumByz = -1, i.e. ⌊ByzFraction·Clients⌋).
func NewCell(dataset, rule, attack string, p Params) Cell {
	return Cell{Dataset: dataset, Rule: rule, Attack: attack, NumByz: -1, Params: p}
}

// EffectiveByz returns the Byzantine client count the cell trains with.
func (c Cell) EffectiveByz() int {
	if c.NumByz >= 0 {
		return c.NumByz
	}
	return c.Params.NumByz()
}

// ID renders a human-readable identifier, the target of the CLI's -filter
// flag. It is descriptive, not unique — Key is the unique identity.
func (c Cell) ID() string {
	return c.id(true)
}

// GroupID is ID without the seed suffix: the identity shared by a cell's
// seed replicas, under which seed-group statistics are aggregated.
func (c Cell) GroupID() string {
	return c.id(false)
}

func (c Cell) id(withSeed bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%s", c.Dataset, c.Rule, c.Attack)
	if c.AttackParam != 0 {
		fmt.Fprintf(&b, "@%g", c.AttackParam)
	}
	if c.NumByz >= 0 {
		fmt.Fprintf(&b, "/byz=%d", c.NumByz)
	}
	if c.NonIIDS > 0 {
		fmt.Fprintf(&b, "/niid=%g", c.NonIIDS)
	}
	if c.Codec != "" && c.Codec != CodecIdentity {
		fmt.Fprintf(&b, "/codec=%s", c.Codec)
	}
	if c.Probe != "" {
		fmt.Fprintf(&b, "/probe=%s", c.Probe)
	}
	if withSeed {
		fmt.Fprintf(&b, "/seed=%d", c.Params.Seed)
	}
	return b.String()
}

// Spec is a named campaign: the grid of cells one sweep evaluates.
type Spec struct {
	Name  string
	Cells []Cell
}

// Filter returns a copy of the spec keeping only cells whose ID contains
// substr (empty substr keeps everything).
func (s Spec) Filter(substr string) Spec {
	if substr == "" {
		return s
	}
	out := Spec{Name: s.Name}
	for _, c := range s.Cells {
		if strings.Contains(c.ID(), substr) {
			out.Cells = append(out.Cells, c)
		}
	}
	return out
}

// Merge concatenates several specs into one named campaign.
func Merge(name string, specs ...Spec) Spec {
	out := Spec{Name: name}
	for _, s := range specs {
		out.Cells = append(out.Cells, s.Cells...)
	}
	return out
}

// ReplicateSeeds expands every cell across the given seeds, producing the
// seed-replica grid the paper's run averaging assumes. The result keeps
// cell order grouped by the original grid (all seeds of cell 0, then cell
// 1, ...) so seed groups stay contiguous in exports. An empty seed list
// returns the spec unchanged.
func ReplicateSeeds(s Spec, seeds []int64) Spec {
	if len(seeds) == 0 {
		return s
	}
	out := Spec{Name: s.Name, Cells: make([]Cell, 0, len(s.Cells)*len(seeds))}
	for _, c := range s.Cells {
		for _, seed := range seeds {
			r := c
			r.Params.Seed = seed
			out.Cells = append(out.Cells, r)
		}
	}
	return out
}

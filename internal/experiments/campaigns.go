package experiments

import (
	"encoding/json"
	"fmt"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/catalog"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/fl"
	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// Registry returns the campaign registry covering the paper's full
// evaluation grid: the four dataset analogs, the unified defense catalog
// (the builtin defenses from internal/defense plus the six Table III
// ablation variants), every attack of the internal/attack catalog, and the
// Fig. 2 sign-statistics probe.
func Registry() *campaign.Registry {
	return &campaign.Registry{
		Datasets: Datasets(),
		Defenses: Defenses(),
		Attacks:  attack.Builtin(),
		Probes: catalog.Must("probe", func(p campaign.Probe) string { return p.Name },
			campaign.Probe{Name: SignStatsProbe, New: newSignStatsProbe}),
	}
}

// Defenses returns the experiment harness's defense catalog: the builtin
// Table I registry extended with the Table III ablation variants.
func Defenses() *defense.Registry {
	defs := defense.Builtin()
	for _, combo := range ablationCombos() {
		combo := combo
		if err := defs.Register(defense.Spec{
			Name: ablationRuleName(combo),
			Build: func(p defense.Params) (aggregate.Rule, error) {
				return newAblationRule(combo, p.Seed)
			},
		}); err != nil {
			panic(err) // statically-valid spec
		}
	}
	return defs
}

// NewEngine builds a campaign engine over the paper's registry. workers
// bounds concurrent cells (0 = GOMAXPROCS), store enables resumable
// caching (nil disables), and progress, when non-nil, observes every
// completed cell (campaign.Engine.Progress).
func NewEngine(workers int, store *campaign.Store, progress func(campaign.ProgressEvent)) *campaign.Engine {
	return &campaign.Engine{Registry: Registry(), Store: store, Workers: workers, Progress: progress}
}

// SignStatsProbe names the Fig. 2 per-round sign-statistics probe: the
// (pos, zero, neg) proportions of the average honest gradient and of a
// LIE-crafted gradient, sampled every ProbeParam rounds.
const SignStatsProbe = "signstats"

// SignStatsSeries is the probe's stored payload.
type SignStatsSeries struct {
	Rounds []int
	Honest []stats.SignStats
	LIE    []stats.SignStats
}

func newSignStatsProbe(c campaign.Cell) (*campaign.ProbeInstance, error) {
	sampleEvery := int(c.ProbeParam)
	if sampleEvery <= 0 {
		sampleEvery = 1
	}
	lie := attack.NewLIE(0.3)
	// The LIE gradient is crafted for the cohort the fraction implies,
	// even though the training run itself is clean (NumByz override 0).
	n, m := c.Params.Clients, c.Params.NumByz()
	out := &SignStatsSeries{}
	hook := func(st *fl.RoundState) {
		if st.Round%sampleEvery != 0 {
			return
		}
		avg, err := tensor.Mean(st.Honest)
		if err != nil {
			return
		}
		honestSS, err := stats.ComputeSignStats(avg)
		if err != nil {
			return
		}
		gm, err := lie.CraftVector(st.Honest, n, m)
		if err != nil {
			return
		}
		lieSS, err := stats.ComputeSignStats(gm)
		if err != nil {
			return
		}
		out.Rounds = append(out.Rounds, st.Round)
		out.Honest = append(out.Honest, honestSS)
		out.LIE = append(out.LIE, lieSS)
	}
	finish := func() (json.RawMessage, error) { return json.Marshal(out) }
	return &campaign.ProbeInstance{Hook: hook, Finish: finish}, nil
}

// Experiment is one entry of the harness: a table or figure of the paper's
// evaluation, or a post-paper scenario axis. Its layout, the one
// declaration of its grid, lays out the tables at the given parameters and
// names each cell through w.cell where its value goes; it names the same
// cells in the same order whatever results the walk holds. Spec and Render
// are two walks of it.
type Experiment struct {
	Name   string
	layout func(p Params, w *walk)
}

// Spec is the experiment's cell grid at p: every cell its layout names, in
// order.
func (x Experiment) Spec(p Params) campaign.Spec {
	w := &walk{}
	x.layout(p, w)
	return campaign.Spec{Name: x.Name, Cells: w.cells}
}

// Render lays out the experiment's tables at p over results, each looked up
// by its cell's key, so their order does not matter. A table none of whose
// cells is among results is left out; one they fill in part fails the
// render, as do results that fill no table at all.
func (x Experiment) Render(p Params, results []*campaign.CellResult) ([]*Table, error) {
	w := &walk{results: make(map[string]*campaign.CellResult, len(results))}
	for _, r := range results {
		w.results[r.Key] = r
	}
	x.layout(p, w)
	if w.err != nil {
		return nil, w.err
	}
	if len(w.tables) == 0 {
		return nil, fmt.Errorf("experiments: %s: none of the %d results is a cell of its grid", x.Name, len(results))
	}
	return w.tables, nil
}

// Experiments returns the experiment catalog in presentation order: the
// paper's tables and figures, then the scenario axes (adaptive attacks,
// compression, server learning). The order fixes the merged "all" campaign
// and the table export of -name all. Each call returns a fresh copy.
func Experiments() *catalog.Catalog[Experiment] {
	return catalog.Must("experiment", func(x Experiment) string { return x.Name }, []Experiment{
		{"table1", table1},
		{"table2", table2},
		{"table3", table3},
		{"fig2", fig2},
		{"fig4", fig4},
		{"fig5", fig5},
		{"fig6", fig6},
		{"adaptive", adaptive},
		{"compression", compression},
		{"serverlearn", serverLearn},
	}...)
}

// CampaignNames lists the named campaigns the CLIs accept: every
// experiment, then "all".
func CampaignNames() []string {
	return append(Experiments().Names(), "all")
}

// CampaignByName expands a named campaign to its cell grid at the given
// parameters. "all" is the union of every experiment in catalog order;
// shared cells (e.g. Table I's 20%-fraction runs reappearing in Fig. 4)
// are deduplicated by the engine's content hashing.
func CampaignByName(name string, p Params) (campaign.Spec, error) {
	xs := Experiments()
	if name == "all" {
		var specs []campaign.Spec
		for _, x := range xs.Values() {
			specs = append(specs, x.Spec(p))
		}
		return campaign.Merge("all", specs...), nil
	}
	x, err := xs.Lookup(name)
	if err != nil {
		return campaign.Spec{}, fmt.Errorf("experiments: unknown campaign %q (want %v)", name, CampaignNames())
	}
	return x.Spec(p), nil
}

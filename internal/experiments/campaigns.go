package experiments

import (
	"encoding/json"
	"fmt"
	"time"

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
// ablation variants), every attack of the internal/attack catalog, the
// builtin codecs, and the Fig. 2 sign-statistics probe.
func Registry() *campaign.Registry {
	reg := campaign.NewRegistry()
	for _, ds := range Datasets() {
		reg.RegisterDataset(ds.Key, campaign.DatasetBuilder{
			LR: ds.LR, Load: ds.Load, NewModel: ds.NewModel,
		})
	}
	reg.RegisterDefenses(Defenses())
	// Every catalog attack, built with the cell's AttackParam as its scalar
	// knob (Reverse's scale in Table III, TimeVarying's switch period in
	// Fig. 5, Backdoor's boost λ; 0 → the attack's documented default).
	for _, spec := range attack.Builtin().Values() {
		reg.RegisterAttack(spec.Name, func(c campaign.Cell, seed int64) (attack.Attack, error) {
			if spec.Name == "TimeVarying" {
				// Seeded from Params.Seed+29 — the derivation the
				// pre-campaign harness used — so historical Fig. 5 curves
				// reproduce bit-for-bit.
				seed = c.Params.Seed + 29
			}
			return spec.New(c.AttackParam, seed)
		})
	}
	reg.RegisterProbe(SignStatsProbe, newSignStatsProbe)
	return reg
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
// caching (nil disables), and log receives per-cell progress lines.
func NewEngine(workers int, store *campaign.Store, log Reporter) *campaign.Engine {
	e := &campaign.Engine{Registry: Registry(), Store: store, Workers: workers}
	if log != nil {
		e.Progress = func(ev campaign.ProgressEvent) {
			state := ev.Duration.Round(time.Millisecond).String()
			if ev.Cached {
				state = "cached"
			}
			if ev.ETA > 0 {
				log("%s %d/%d %s (%s, eta %s)",
					ev.Spec, ev.Done, ev.Total, ev.Cell.ID(), state, ev.ETA.Round(time.Second))
			} else {
				log("%s %d/%d %s (%s)", ev.Spec, ev.Done, ev.Total, ev.Cell.ID(), state)
			}
		}
	}
	return e
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
// evaluation, or a post-paper scenario axis. Spec declares its cell grid at
// the given parameters; Render turns the grid's results, one per cell in
// spec order, into the tables `campaign export -format md|tsv` prints.
type Experiment struct {
	Name   string
	Spec   func(Params) campaign.Spec
	Render func([]*campaign.CellResult) ([]*Table, error)
}

// Experiments returns the experiment catalog in presentation order: the
// paper's tables and figures, then the scenario axes (adaptive attacks,
// compression, hostile input, server learning). The order fixes the merged "all" campaign and
// the table export of -name all. Each call returns a fresh copy.
func Experiments() *catalog.Catalog[Experiment] {
	return catalog.Must("experiment", func(x Experiment) string { return x.Name }, []Experiment{
		{"table1", table1Spec, renderTable1},
		{"table2", table2Spec, renderTable2},
		{"table3", table3Spec, renderTable3},
		{"fig2", fig2Spec, renderFig2},
		{"fig4", fig4Spec, renderFig4},
		{"fig5", fig5Spec, renderFig5},
		{"fig6", fig6Spec, renderFig6},
		{"adaptive", adaptiveSpec, renderAdaptive},
		{"compression", compressionSpec, renderCompression},
		{"hostile", hostileSpec, renderHostile},
		{"serverlearn", serverLearnSpec, renderServerLearn},
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

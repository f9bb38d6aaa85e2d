package campaign_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/catalog"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/fl"
	"github.com/signguard/signguard/internal/nn"
)

// testRegistry returns a minimal self-contained registry: one tiny
// synthetic image dataset, the builtin defenses, four attacks and a
// round-counting probe — enough to exercise every engine path in well under
// a second per cell.
func testRegistry() *campaign.Registry {
	attackSpec := func(name string, build func() attack.Attack) attack.Spec {
		return attack.Spec{Name: name, New: func(float64, int64) (attack.Attack, error) { return build(), nil }}
	}
	return &campaign.Registry{
		Datasets: catalog.Must("dataset", func(d campaign.Dataset) string { return d.Key }, campaign.Dataset{
			Key: "tiny", LR: 0.1,
			Load: func(seed int64, train, test int) (*data.Dataset, error) {
				return data.GenerateSynthImage(data.SynthImageConfig{
					Name: "tiny", Classes: 4, C: 1, H: 4, W: 4, Train: train, Test: test,
					Margin: 4, NoiseStd: 0.4, SmoothPass: 1, Seed: seed,
				})
			},
			NewModel: func(rng *rand.Rand) (nn.Classifier, error) {
				return nn.NewMLP(rng, 16, 12, 4)
			},
		}),
		Defenses: defense.Builtin(),
		Attacks: catalog.Must("attack", func(s attack.Spec) string { return s.Name },
			attackSpec("NoAttack", func() attack.Attack { return attack.NewNone() }),
			attackSpec("SignFlip", func() attack.Attack { return attack.NewSignFlip() }),
			attackSpec("LIE", func() attack.Attack { return attack.NewLIE(0.3) }),
			attackSpec("NonFinite-NaN", func() attack.Attack { return attack.NewNonFinite() }),
		),
		Probes: catalog.Must("probe", func(p campaign.Probe) string { return p.Name }, campaign.Probe{
			Name: "rounds",
			New: func(campaign.Cell) (*campaign.ProbeInstance, error) {
				var rounds int
				return &campaign.ProbeInstance{
					Hook:   func(*fl.RoundState) { rounds++ },
					Finish: func() (json.RawMessage, error) { return json.Marshal(rounds) },
				}, nil
			},
		}),
	}
}

func tinyParams(seed int64) campaign.Params {
	return campaign.Params{
		Clients: 8, ByzFraction: 0.25, Rounds: 6, BatchSize: 4,
		EvalEvery: 3, EvalSamples: 40, TrainSize: 160, TestSize: 60, Seed: seed,
	}
}

// testSpec is a 2 rules × 2 attacks × 2 seeds grid (8 unique cells).
func testSpec() campaign.Spec {
	spec := campaign.Spec{Name: "test"}
	for _, seed := range []int64{1, 2} {
		for _, rule := range []string{"Mean", "SignGuard"} {
			for _, att := range []string{"SignFlip", "LIE"} {
				spec.Cells = append(spec.Cells, campaign.NewCell("tiny", rule, att, tinyParams(seed)))
			}
		}
	}
	return spec
}

func mustRun(t *testing.T, e *campaign.Engine, spec campaign.Spec) *campaign.Report {
	t.Helper()
	rep, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(spec.Cells) {
		t.Fatalf("%d results for %d cells", len(rep.Results), len(spec.Cells))
	}
	for i, r := range rep.Results {
		if r == nil {
			t.Fatalf("nil result at index %d", i)
		}
	}
	return rep
}

func resultHashes(t *testing.T, rep *campaign.Report) []string {
	t.Helper()
	out := make([]string, len(rep.Results))
	for i, r := range rep.Results {
		h, err := r.Hash()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = h
	}
	return out
}

// TestWorkerCountInvariance is acceptance criterion (a): a campaign run
// with workers=1 and workers=N produces identical per-cell results for the
// same spec.
func TestWorkerCountInvariance(t *testing.T) {
	spec := testSpec()
	seq := mustRun(t, &campaign.Engine{Registry: testRegistry(), Workers: 1}, spec)
	seqHashes := resultHashes(t, seq)
	for _, workers := range []int{4, 0} {
		par := mustRun(t, &campaign.Engine{Registry: testRegistry(), Workers: workers}, spec)
		for i, h := range resultHashes(t, par) {
			if h != seqHashes[i] {
				t.Errorf("workers=%d: cell %d (%s) result hash %s != sequential %s",
					workers, i, spec.Cells[i].ID(), h, seqHashes[i])
			}
		}
	}
	if seq.Executed != len(spec.Cells) || seq.CacheHits != 0 {
		t.Errorf("cache-less run: executed=%d hits=%d", seq.Executed, seq.CacheHits)
	}
}

// TestResumeWithWarmCache is acceptance criterion (b): re-running a
// completed campaign performs zero recomputation — every cell is a cache
// hit — and returns identical results.
func TestResumeWithWarmCache(t *testing.T) {
	spec := testSpec()
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	cold := mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: store, Workers: 4}, spec)
	if cold.Executed != len(spec.Cells) || cold.CacheHits != 0 {
		t.Fatalf("cold run: executed=%d hits=%d, want %d/0", cold.Executed, cold.CacheHits, len(spec.Cells))
	}

	warm := mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: store, Workers: 4}, spec)
	if warm.Executed != 0 || warm.CacheHits != len(spec.Cells) {
		t.Fatalf("warm run: executed=%d hits=%d, want 0/%d", warm.Executed, warm.CacheHits, len(spec.Cells))
	}
	coldHashes, warmHashes := resultHashes(t, cold), resultHashes(t, warm)
	for i := range coldHashes {
		if coldHashes[i] != warmHashes[i] {
			t.Errorf("cell %d: cached result hash differs", i)
		}
		if !warm.Results[i].Cached {
			t.Errorf("cell %d: not marked cached", i)
		}
	}
}

// TestInterruptedResume simulates an interrupted campaign: a store with a
// strict subset of results only recomputes the missing cells.
func TestInterruptedResume(t *testing.T) {
	spec := testSpec()
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: store, Workers: 2}, spec)

	// Evict two cells, as if the campaign had been killed mid-flight.
	for _, i := range []int{1, 5} {
		key, err := spec.Cells[i].Key()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(store.Dir(), key+".json")); err != nil {
			t.Fatal(err)
		}
	}
	resumed := mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: store, Workers: 2}, spec)
	if resumed.Executed != 2 || resumed.CacheHits != len(spec.Cells)-2 {
		t.Fatalf("resume: executed=%d hits=%d, want 2/%d", resumed.Executed, resumed.CacheHits, len(spec.Cells)-2)
	}
}

// TestDeduplication: a spec repeating the same cell trains it once and
// fans the shared result out to every position.
func TestDeduplication(t *testing.T) {
	c := campaign.NewCell("tiny", "Mean", "SignFlip", tinyParams(1))
	spec := campaign.Spec{Name: "dup", Cells: []campaign.Cell{c, c, c}}
	rep := mustRun(t, &campaign.Engine{Registry: testRegistry(), Workers: 2}, spec)
	if rep.Executed != 1 {
		t.Errorf("executed %d cells, want 1", rep.Executed)
	}
	if rep.Results[0] != rep.Results[1] || rep.Results[1] != rep.Results[2] {
		t.Error("duplicate cells should share one result")
	}
}

func TestCellKeyStability(t *testing.T) {
	a := campaign.NewCell("tiny", "Mean", "SignFlip", tinyParams(1))
	b := campaign.NewCell("tiny", "Mean", "SignFlip", tinyParams(1))
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("equal cells hash differently: %s vs %s", ka, kb)
	}
	for name, mutate := range map[string]func(*campaign.Cell){
		"rule":        func(c *campaign.Cell) { c.Rule = "SignGuard" },
		"attack":      func(c *campaign.Cell) { c.Attack = "LIE" },
		"attackParam": func(c *campaign.Cell) { c.AttackParam = 2 },
		"numByz":      func(c *campaign.Cell) { c.NumByz = 0 },
		"nonIID":      func(c *campaign.Cell) { c.NonIIDS = 0.3 },
		"probe":       func(c *campaign.Cell) { c.Probe = "rounds" },
		"seed":        func(c *campaign.Cell) { c.Params.Seed = 9 },
		"rounds":      func(c *campaign.Cell) { c.Params.Rounds = 7 },
	} {
		mut := a
		mutate(&mut)
		km, err := mut.Key()
		if err != nil {
			t.Fatal(err)
		}
		if km == ka {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
}

// TestCorruptStoreEntryRecomputes: an unreadable cache file is a miss, not
// an error — the engine recomputes and heals the entry.
func TestCorruptStoreEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := campaign.NewCell("tiny", "Mean", "SignFlip", tinyParams(1))
	spec := campaign.Spec{Name: "corrupt", Cells: []campaign.Cell{c}}
	mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: store, Workers: 1}, spec)

	key, err := c.Key()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: store, Workers: 1}, spec)
	if rep.Executed != 1 || rep.CacheHits != 0 {
		t.Errorf("corrupt entry: executed=%d hits=%d, want 1/0", rep.Executed, rep.CacheHits)
	}
	if _, ok := store.Get(key); !ok {
		t.Error("entry not healed after recompute")
	}
}

func TestProbeOutputStoredAndCached(t *testing.T) {
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := campaign.NewCell("tiny", "Mean", "NoAttack", tinyParams(1))
	c.Probe = "rounds"
	spec := campaign.Spec{Name: "probe", Cells: []campaign.Cell{c}}

	check := func(rep *campaign.Report) {
		t.Helper()
		var rounds int
		if err := json.Unmarshal(rep.Results[0].Probe, &rounds); err != nil {
			t.Fatal(err)
		}
		if rounds != c.Params.Rounds {
			t.Errorf("probe saw %d rounds, want %d", rounds, c.Params.Rounds)
		}
	}
	check(mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: store, Workers: 1}, spec))
	warm := mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: store, Workers: 1}, spec)
	if warm.CacheHits != 1 {
		t.Fatalf("probe cell not cached")
	}
	check(warm)
}

func TestValidateRejectsUnknownNames(t *testing.T) {
	e := &campaign.Engine{Registry: testRegistry(), Workers: 1}
	for _, mutate := range []func(*campaign.Cell){
		func(c *campaign.Cell) { c.Dataset = "imagenet" },
		func(c *campaign.Cell) { c.Rule = "nope" },
		func(c *campaign.Cell) { c.Attack = "nope" },
		func(c *campaign.Cell) { c.Probe = "nope" },
	} {
		c := campaign.NewCell("tiny", "Mean", "SignFlip", tinyParams(1))
		mutate(&c)
		if _, err := e.Run(context.Background(), campaign.Spec{Name: "bad", Cells: []campaign.Cell{c}}); err == nil {
			t.Errorf("engine accepted invalid cell %s", c.ID())
		}
	}
}

// TestValidateRejectsBadAxes: Validate refuses a cell on each axis it
// checks, before any cell runs, with an error naming the cell and the
// offending value. The texts are pinned byte for byte: the CLI prints them.
func TestValidateRejectsBadAxes(t *testing.T) {
	reg := testRegistry()
	const params = "{Clients:8 ByzFraction:0.25 Rounds:6 BatchSize:4 EvalEvery:3 EvalSamples:40 TrainSize:160 TestSize:60 Seed:1}"
	for _, tc := range []struct {
		name   string
		mutate func(*campaign.Cell)
		want   string
	}{
		{"unknown dataset", func(c *campaign.Cell) { c.Dataset = "imagenet" },
			`cell 0 (imagenet/Mean/LIE/seed=1): campaign: unknown dataset "imagenet"`},
		{"unknown rule", func(c *campaign.Cell) { c.Rule = "Medoid" },
			`cell 0 (tiny/Medoid/LIE/seed=1): defense: unknown defense "Medoid"`},
		{"unknown attack", func(c *campaign.Cell) { c.Attack = "Gaussian" },
			`cell 0 (tiny/Mean/Gaussian/seed=1): campaign: unknown attack "Gaussian"`},
		{"unknown probe", func(c *campaign.Cell) { c.Probe = "norms" },
			`cell 0 (tiny/Mean/LIE/probe=norms/seed=1): campaign: unknown probe "norms"`},
		{"zero clients", func(c *campaign.Cell) { c.Params.Clients = 0 },
			`cell 0 (tiny/Mean/LIE/seed=1): invalid params ` + strings.Replace(params, "Clients:8", "Clients:0", 1)},
		{"zero rounds", func(c *campaign.Cell) { c.Params.Rounds = 0 },
			`cell 0 (tiny/Mean/LIE/seed=1): invalid params ` + strings.Replace(params, "Rounds:6", "Rounds:0", 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := campaign.NewCell("tiny", "Mean", "LIE", tinyParams(1))
			tc.mutate(&c)
			err := reg.Validate(campaign.Spec{Name: "x", Cells: []campaign.Cell{c}})
			if err == nil || err.Error() != tc.want {
				t.Errorf("Validate = %v\nwant %s", err, tc.want)
			}
		})
	}
}

func TestFilter(t *testing.T) {
	spec := testSpec()
	got := spec.Filter("SignGuard/LIE")
	if len(got.Cells) != 2 {
		t.Fatalf("filter kept %d cells, want 2 (one per seed)", len(got.Cells))
	}
	for _, c := range got.Cells {
		if c.Rule != "SignGuard" || c.Attack != "LIE" {
			t.Errorf("filter kept %s", c.ID())
		}
	}
	if all := spec.Filter(""); len(all.Cells) != len(spec.Cells) {
		t.Error("empty filter should keep everything")
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := &campaign.Engine{Registry: testRegistry(), Workers: 2}
	if _, err := e.Run(ctx, testSpec()); err == nil {
		t.Error("cancelled context should fail the run")
	}
}

func TestExportFormats(t *testing.T) {
	rep := mustRun(t, &campaign.Engine{Registry: testRegistry(), Workers: 2}, testSpec())

	var csvOut strings.Builder
	if err := campaign.WriteCSV(&csvOut, rep.Results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvOut.String()), "\n")
	if len(lines) != 1+len(rep.Results) {
		t.Errorf("csv has %d lines, want %d", len(lines), 1+len(rep.Results))
	}
	if !strings.HasPrefix(lines[0], "key,id,dataset,rule,attack") {
		t.Errorf("csv header = %q", lines[0])
	}

	var jsonOut strings.Builder
	if err := campaign.WriteJSON(&jsonOut, rep.Results); err != nil {
		t.Fatal(err)
	}
	var decoded []campaign.CellResult
	if err := json.Unmarshal([]byte(jsonOut.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(rep.Results) {
		t.Errorf("json round-trips %d results, want %d", len(decoded), len(rep.Results))
	}

	if err := campaign.WriteExport(&strings.Builder{}, "xml", nil); err == nil {
		t.Error("unknown export format accepted")
	}
}

// TestProgressReporting checks the progress stream: one event per unique
// cell, monotone Done, cache hits flagged, and a positive ETA mid-run.
func TestProgressReporting(t *testing.T) {
	spec := testSpec()
	var events []campaign.ProgressEvent
	e := &campaign.Engine{
		Registry: testRegistry(), Workers: 2,
		Progress: func(ev campaign.ProgressEvent) { events = append(events, ev) },
	}
	mustRun(t, e, spec)
	if len(events) != len(spec.Cells) {
		t.Fatalf("%d progress events for %d cells", len(events), len(spec.Cells))
	}
	sawETA := false
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(spec.Cells) {
			t.Errorf("event %d: done=%d total=%d", i, ev.Done, ev.Total)
		}
		if ev.Cached {
			t.Errorf("event %d: cache hit without a store", i)
		}
		if ev.ETA > 0 {
			sawETA = true
		}
	}
	if !sawETA {
		t.Error("no event carried an ETA estimate")
	}
}

func TestMergeAndIDs(t *testing.T) {
	a := campaign.Spec{Name: "a", Cells: []campaign.Cell{campaign.NewCell("tiny", "Mean", "LIE", tinyParams(1))}}
	b := campaign.Spec{Name: "b", Cells: []campaign.Cell{campaign.NewCell("tiny", "SignGuard", "LIE", tinyParams(2))}}
	m := campaign.Merge("ab", a, b)
	if m.Name != "ab" || len(m.Cells) != 2 {
		t.Fatalf("merge = %+v", m)
	}
	id := m.Cells[0].ID()
	for _, want := range []string{"tiny/", "Mean", "LIE", "seed=1"} {
		if !strings.Contains(id, want) {
			t.Errorf("ID %q missing %q", id, want)
		}
	}
	c := m.Cells[1]
	c.NonIIDS = 0.5
	c.NumByz = 3
	c.AttackParam = 2.5
	id = c.ID()
	for _, want := range []string{"byz=3", "niid=0.5", "@2.5"} {
		if !strings.Contains(id, want) {
			t.Errorf("ID %q missing %q", id, want)
		}
	}
	_ = fmt.Sprintf("%v", m)
}

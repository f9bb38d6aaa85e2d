package experiments

import (
	"testing"

	"github.com/signguard/signguard/internal/attack"
)

func TestServerLearnSpecShape(t *testing.T) {
	p := axesParams()
	spec := gridOf(t, "serverlearn", p)
	if want := len(serverLearnRules) * len(serverLearnAttacks); len(spec.Cells) != want {
		t.Fatalf("%d cells, want %d", len(spec.Cells), want)
	}
	byz := serverLearnByz(p)
	for _, c := range spec.Cells {
		if c.NumByz != byz {
			t.Errorf("cell %s has NumByz %d, want the pinned %d", c.ID(), c.NumByz, byz)
		}
	}
	// Every referenced rule and attack must resolve through the registries.
	for _, rule := range serverLearnRules {
		if _, err := Defenses().Lookup(rule); err != nil {
			t.Errorf("rule %s: %v", rule, err)
		}
	}
	for _, att := range serverLearnAttacks {
		if _, err := attack.Builtin().Lookup(att); err != nil {
			t.Errorf("attack %s: %v", att, err)
		}
	}
}

// TestServerLearnDefensesBeatMean is the campaign's acceptance assertion:
// under both the backdoor / model-replacement adversary and the adaptive
// Min-Max at the pinned 30% Byzantine fraction, FLTrust and FLAME end with
// a lower final error than undefended Mean. A diverged run counts as 100%
// error.
func TestServerLearnDefensesBeatMean(t *testing.T) {
	p := axesParams()
	// The toy axesParams scale (4 rounds, 40-sample eval) cannot resolve
	// defended-vs-undefended differences; give the comparison enough rounds
	// and the full test split to separate. (By round ~12 the defended curves
	// still cross Mean's transiently; 20 rounds is comfortably past that.)
	p.Rounds = 20
	p.EvalEvery = 4
	p.EvalSamples = 0
	rep, err := NewEngine(0, nil, nil).Run(t.Context(), gridOf(t, "serverlearn", p))
	if err != nil {
		t.Fatal(err)
	}
	errOf := map[string]float64{}
	for _, r := range rep.Results {
		e := 100 - r.FinalAccuracy
		if r.Diverged {
			e = 100
		}
		errOf[r.RuleName+"/"+r.AttackName] = e
	}
	for _, att := range serverLearnAttacks {
		mean, ok := errOf["Mean/"+att]
		if !ok {
			t.Fatalf("no Mean result under %s", att)
		}
		for _, rule := range []string{"FLTrust", "FLAME"} {
			got, ok := errOf[rule+"/"+att]
			if !ok {
				t.Fatalf("no %s result under %s", rule, att)
			}
			if got >= mean {
				t.Errorf("%s final error %.2f%% under %s, want below Mean's %.2f%%", rule, got, att, mean)
			}
		}
	}
}

// TestServerLearnRendererShape pins the rendered table to the grid.
func TestServerLearnRendererShape(t *testing.T) {
	p := axesParams()
	tables, err := runExperiment(t.Context(), NewEngine(0, nil, nil), "serverlearn", p)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Rows) != len(serverLearnRules) || len(tbl.Header) != 1+len(serverLearnAttacks) {
		t.Errorf("rendered %dx%d", len(tbl.Rows), len(tbl.Header))
	}
}

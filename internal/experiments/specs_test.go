package experiments

import (
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/attack"
)

func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scale
		ok   bool
	}{
		{"bench", ScaleBench, true},
		{"standard", ScaleStandard, true},
		{"full", 0, false},
		{"huge", 0, false},
	} {
		got, err := ParseScale(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseScale(%q) = %v, %v", tc.in, got, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseScale(%q) accepted", tc.in)
		}
	}
	if ScaleBench.String() != "bench" || Scale(9).String() == "" {
		t.Error("Scale.String")
	}
}

func TestDefaultParams(t *testing.T) {
	for _, s := range []Scale{ScaleBench, ScaleStandard} {
		p := DefaultParams(s)
		if p.Clients <= 0 || p.Rounds <= 0 || p.BatchSize <= 0 || p.TrainSize <= 0 {
			t.Errorf("%v params invalid: %+v", s, p)
		}
		if p.NumByz() != int(0.2*float64(p.Clients)) {
			t.Errorf("%v NumByz = %d", s, p.NumByz())
		}
	}
	if DefaultParams(ScaleStandard).Rounds <= DefaultParams(ScaleBench).Rounds {
		t.Error("standard scale should train longer than bench scale")
	}
}

func TestSpecLookups(t *testing.T) {
	if n := len(Datasets().Names()); n != 4 {
		t.Fatalf("%d datasets", n)
	}
	for _, key := range []string{"mnist", "fashion", "cifar", "agnews"} {
		ds, err := DatasetByKey(key)
		if err != nil || ds.Key != key {
			t.Errorf("DatasetByKey(%q) = %+v, %v", key, ds, err)
		}
	}
	if _, err := DatasetByKey("imagenet"); err == nil {
		t.Error("accepted unknown dataset")
	}

	if len(tableAttacks) != 9 || tableAttacks[0] != "NoAttack" {
		t.Fatalf("attack columns %v, want the 9 Table I columns starting at NoAttack", tableAttacks)
	}
}

func TestAttackFactoriesBuild(t *testing.T) {
	for _, name := range tableAttacks {
		spec, err := attack.Builtin().Lookup(name)
		if err != nil {
			t.Fatalf("Table I column %q is not in the attack catalog: %v", name, err)
		}
		if att, err := spec.New(0, 1); err != nil || att == nil || att.Name() == "" {
			t.Errorf("attack factory %s broken: %v", name, err)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "b"}}
	tbl.AddRow("1", "2")
	var md strings.Builder
	if err := tbl.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| a | b |") || !strings.Contains(md.String(), "### T") {
		t.Errorf("markdown = %q", md.String())
	}
	var tsv strings.Builder
	if err := tbl.TSV(&tsv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tsv.String(), "a\tb") || !strings.Contains(tsv.String(), "1\t2") {
		t.Errorf("tsv = %q", tsv.String())
	}
}

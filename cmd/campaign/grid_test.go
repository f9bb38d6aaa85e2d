package main

import (
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/campaign"
)

// resolveSpec is the grid run/status/export select for these flags (no
// codec or non-finite stamp).
func resolveSpec(name, scale string, seed int64, seeds, filter string) (campaign.Spec, error) {
	g := gridFlags{name: name, scale: scale, seed: seed, seeds: seeds, filter: filter}
	return g.spec()
}

func TestResolveSpecNames(t *testing.T) {
	cases := []struct {
		name      string
		wantCells int // 0 = only assert non-empty
	}{
		{name: "table2"},
		{name: "subsample", wantCells: 9},
		{name: "coordfrac", wantCells: 10},
		{name: "dncsubdim", wantCells: 6},
		{name: "adaptive", wantCells: 6},
		{name: "all"},
	}
	for _, tc := range cases {
		spec, err := resolveSpec(tc.name, "bench", 1, "", "")
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(spec.Cells) == 0 {
			t.Errorf("%s: empty spec", tc.name)
		}
		if tc.wantCells > 0 && len(spec.Cells) != tc.wantCells {
			t.Errorf("%s: %d cells, want %d", tc.name, len(spec.Cells), tc.wantCells)
		}
	}
}

func TestResolveSpecErrors(t *testing.T) {
	cases := []struct {
		name, scale, seeds, filter string
		wantErr                    string
	}{
		{name: "nope", scale: "bench", wantErr: "unknown campaign"},
		{name: "table2", scale: "galactic", wantErr: "unknown scale"},
		{name: "table2", scale: "bench", seeds: "1,x,3", wantErr: "bad seed"},
		{name: "table2", scale: "bench", filter: "no-such-cell", wantErr: "no cells match"},
	}
	for _, tc := range cases {
		_, err := resolveSpec(tc.name, tc.scale, 1, tc.seeds, tc.filter)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("resolveSpec(%+v) error = %v, want %q", tc, err, tc.wantErr)
		}
	}
}

func TestResolveSpecFilterSelection(t *testing.T) {
	full, err := resolveSpec("adaptive", "bench", 1, "", "")
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := resolveSpec("adaptive", "bench", 1, "", "Adaptive-Min-Max")
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered.Cells) == 0 || len(filtered.Cells) >= len(full.Cells) {
		t.Fatalf("filter kept %d of %d cells", len(filtered.Cells), len(full.Cells))
	}
	for _, c := range filtered.Cells {
		if !strings.Contains(c.ID(), "Adaptive-Min-Max") {
			t.Errorf("filter leaked cell %s", c.ID())
		}
	}
}

func TestResolveSpecSeedsReplication(t *testing.T) {
	base, err := resolveSpec("table2", "bench", 1, "", "")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := resolveSpec("table2", "bench", 1, "2, 3 ,5", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 3*len(base.Cells) {
		t.Fatalf("replicated %d cells from %d, want ×3", len(rep.Cells), len(base.Cells))
	}
	seeds := map[int64]int{}
	for _, c := range rep.Cells {
		seeds[c.Params.Seed]++
	}
	for _, want := range []int64{2, 3, 5} {
		if seeds[want] != len(base.Cells) {
			t.Errorf("seed %d appears %d times, want %d", want, seeds[want], len(base.Cells))
		}
	}
	// -filter composes with -seeds (replication first).
	one, err := resolveSpec("table2", "bench", 1, "2,3", "seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Cells) != len(base.Cells) {
		t.Errorf("seed filter kept %d cells, want %d", len(one.Cells), len(base.Cells))
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("")
	if err != nil || got != nil {
		t.Errorf("empty list: %v %v", got, err)
	}
	got, err = parseSeeds("7")
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Errorf("single seed: %v %v", got, err)
	}
	if _, err := parseSeeds("1,,2"); err == nil {
		t.Error("empty element accepted")
	}
	if _, err := parseSeeds("1.5"); err == nil {
		t.Error("float seed accepted")
	}
}

func TestForEachUniqueCellDeduplicates(t *testing.T) {
	spec, err := resolveSpec("table2", "bench", 1, "", "")
	if err != nil {
		t.Fatal(err)
	}
	dup := campaign.Spec{Name: spec.Name, Cells: append(append([]campaign.Cell{}, spec.Cells...), spec.Cells...)}
	var visited []string
	if err := forEachUniqueCell(dup, func(c campaign.Cell, key string) error {
		visited = append(visited, key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(visited) != len(spec.Cells) {
		t.Errorf("visited %d unique cells, want %d", len(visited), len(spec.Cells))
	}
	seen := map[string]bool{}
	for _, k := range visited {
		if seen[k] {
			t.Fatalf("key %s visited twice", k)
		}
		seen[k] = true
	}
}

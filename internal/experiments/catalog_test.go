package experiments

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/stats"
)

// TestCampaignNamesOrder pins the catalog order: it fixes the merged "all"
// grid, its export row order and the table export of -name all.
func TestCampaignNamesOrder(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "fig2", "fig4", "fig5", "fig6",
		"adaptive", "compression", "serverlearn", "all",
	}
	if got := CampaignNames(); !slices.Equal(got, want) {
		t.Errorf("CampaignNames() = %v, want %v", got, want)
	}
}

// fabricate returns one result per cell of spec, keyed by the cell's key.
// Every result carries values of its own (accuracies, selection rates,
// wire bytes, curve), so a table that shows a result at another cell's
// place renders differently; probe cells get a two-sample sign series.
func fabricate(t *testing.T, spec campaign.Spec) []*campaign.CellResult {
	t.Helper()
	ss := stats.SignStats{Pos: 0.5, Zero: 0.2, Neg: 0.3}
	probe, err := json.Marshal(SignStatsSeries{
		Rounds: []int{0, 3}, Honest: []stats.SignStats{ss, ss}, LIE: []stats.SignStats{ss, ss},
	})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*campaign.CellResult, len(spec.Cells))
	for i, c := range spec.Cells {
		key, err := c.Key()
		if err != nil {
			t.Fatal(err)
		}
		v := float64(i)
		results[i] = &campaign.CellResult{
			Key: key, Cell: c, HasSelection: true, BestAccuracy: 90 - v/10, FinalAccuracy: 80 - v/10,
			SelHonest: v / 1000, SelMalicious: 1 - v/1000, WireBytes: int64(1000 * (i + 1)),
			EvalRounds: []int{10, 20}, EvalAccuracies: []float64{v, 2 * v},
		}
		if c.Probe == SignStatsProbe {
			results[i].Probe = probe
		}
	}
	return results
}

// TestLayoutNamesOneGrid holds every catalog entry to the contract of its
// one declaration, without training a cell, at both scales. Walked with no
// results (Spec) and walked over one fabricated result per cell, the
// layout names identical cell lists. Over those results it renders every
// table, rows as wide as the header, and the same tables from the results
// in reverse order, since it reads by key. Without the last result it
// fails or leaves out that result's table, never rendering it in part.
func TestLayoutNamesOneGrid(t *testing.T) {
	for _, x := range Experiments().Values() {
		for _, scale := range []Scale{ScaleBench, ScaleStandard} {
			t.Run(x.Name+"/"+scale.String(), func(t *testing.T) {
				p := DefaultParams(scale)
				spec := x.Spec(p)
				results := fabricate(t, spec)
				w := &walk{results: map[string]*campaign.CellResult{}}
				for _, r := range results {
					w.results[r.Key] = r
				}
				x.layout(p, w)
				if w.err != nil {
					t.Fatal(w.err)
				}
				if !slices.Equal(w.cells, spec.Cells) {
					t.Fatalf("a walk over results named %d cells, the empty walk %d, or the same count in another order",
						len(w.cells), len(spec.Cells))
				}

				tables, err := x.Render(p, results)
				if err != nil {
					t.Fatal(err)
				}
				if len(tables) == 0 || len(tables) != len(w.tables) {
					t.Fatalf("rendered %d tables, the walk kept %d", len(tables), len(w.tables))
				}
				for _, tbl := range tables {
					for i, row := range tbl.Rows {
						if len(row) != len(tbl.Header) {
							t.Errorf("%s: row %d has %d cells, header %d", tbl.Title, i, len(row), len(tbl.Header))
						}
					}
				}
				reversed := slices.Clone(results)
				slices.Reverse(reversed)
				if again, err := x.Render(p, reversed); err != nil || !reflect.DeepEqual(again, tables) {
					t.Errorf("results in reverse order rendered differently (error %v)", err)
				}

				short, err := x.Render(p, results[:len(results)-1])
				if err == nil && len(short) >= len(tables) {
					t.Errorf("rendered all %d tables of a %d-cell grid from %d results", len(tables), len(results), len(results)-1)
				}
			})
		}
	}
}

// TestRenderNarrowedResults: results narrowed to whole tables render
// those tables alone (Table I's MNIST results render the MNIST table); a
// table they fill in part fails the render, naming its count, however the
// present cells read (Table II's LIE row of results with no selection);
// results of another grid fill nothing and fail.
func TestRenderNarrowedResults(t *testing.T) {
	p := DefaultParams(ScaleBench)
	render := func(name, filter string, edit func(*campaign.CellResult)) ([]*Table, error) {
		x, err := Experiments().Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		results := fabricate(t, x.Spec(p).Filter(filter))
		for _, r := range results {
			if edit != nil {
				edit(r)
			}
		}
		return x.Render(p, results)
	}

	tables, err := render("table1", "mnist/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || !strings.Contains(tables[0].Title, "MNIST") {
		t.Errorf("Table I from MNIST results rendered %d tables, first %q", len(tables), tables[0].Title)
	}

	_, err = render("table2", "LIE", func(r *campaign.CellResult) { r.HasSelection = false })
	if want := "results for 3 of its 15 cells"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Table II from its LIE results: error %v, want %q", err, want)
	}

	x, err := Experiments().Lookup("table3")
	if err != nil {
		t.Fatal(err)
	}
	_, err = x.Render(p, fabricate(t, gridOf(t, "table2", p)))
	if want := "none of the 15 results"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Table III from Table II's results: error %v, want %q", err, want)
	}
}

// offGrid names each catalog entry that no cell of the "all" grid reaches,
// with the user outside the grids that keeps it. Neither has a non-test
// user outside the catalog: cmd/flclient's -byzantine modes are Sign-flip,
// Reverse, Random and Label-flip.
var offGrid = map[string]string{
	"attack SignKeep": "attack's TestSignKeepingEvadesPlainSignGuard and the catalog " +
		"conformance and golden tests; ROADMAP item 14 decides it",
	"attack NonFinite-NaN": "the catalog conformance and golden tests, campaign's " +
		"TestNonFiniteScreenedReachesResult and, as attack.NewNonFinite, " +
		"fl's TestNonFiniteSubmissionRefused",
}

// TestEveryCatalogEntryHasAUser: every experiments.Defenses(),
// attack.Builtin() and codec.Builtin() entry is named by a cell of the
// "all" grid at bench scale, read through the experiments' layouts, or
// offGrid lists it with the user that keeps it. An entry that loses its
// last grid fails here instead of lingering, and so does an offGrid row
// whose entry a grid reaches again or the catalog no longer has.
func TestEveryCatalogEntryHasAUser(t *testing.T) {
	spec, err := CampaignByName("all", DefaultParams(ScaleBench))
	if err != nil {
		t.Fatal(err)
	}
	reached := map[string]bool{}
	for _, c := range spec.Cells {
		cdc := c.Codec
		if cdc == "" {
			cdc = codec.Identity
		}
		reached["defense "+c.Rule] = true
		reached["attack "+c.Attack] = true
		reached["codec "+cdc] = true
	}
	entries := map[string]bool{}
	for kind, names := range map[string][]string{
		"defense": Defenses().Names(),
		"attack":  attack.Builtin().Names(),
		"codec":   codec.Builtin().Names(),
	} {
		for _, name := range names {
			entry := kind + " " + name
			entries[entry] = true
			if _, listed := offGrid[entry]; listed == reached[entry] {
				t.Errorf("%s: reached by a grid %v, listed off the grid %v", entry, reached[entry], listed)
			}
		}
	}
	for entry := range offGrid {
		if !entries[entry] {
			t.Errorf("offGrid lists %s, which no catalog has", entry)
		}
	}
}
